// Package compress implements a Snappy-compatible block compressor from
// first principles. Compression is the largest datacenter tax for BigTable
// and BigQuery (Figure 5: >30%), and compression accelerators are one of
// the paper's headline acceleration targets; this package provides the real
// codec used by the SoC's extended accelerator-chain experiments and the
// platform data paths.
//
// The format is Snappy's: a varint-encoded uncompressed length followed by
// a sequence of literal and copy elements. Decompressing this package's
// output with any conformant Snappy decoder yields the original bytes.
package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Errors returned by Decode.
var (
	ErrCorrupt  = errors.New("compress: corrupt input")
	ErrTooLarge = errors.New("compress: decoded block too large")
)

// MaxBlockSize is the largest block Encode accepts, matching Snappy's
// practical 4 GiB varint bound but capped for sanity.
const MaxBlockSize = 1 << 30

// tag values for element types (low 2 bits of the tag byte).
const (
	tagLiteral = 0x00
	tagCopy1   = 0x01 // copy with 1-byte offset-high + length 4..11
	tagCopy2   = 0x02 // copy with 2-byte little-endian offset
	tagCopy4   = 0x03 // copy with 4-byte little-endian offset
)

const (
	hashTableBits = 14
	hashTableSize = 1 << hashTableBits
	minMatch      = 4
	inputMargin   = 16
)

func hash4(u uint32) uint32 { return (u * 0x1e35a7bd) >> (32 - hashTableBits) }

func load32(b []byte, i int) uint32 { return binary.LittleEndian.Uint32(b[i:]) }

// MaxEncodedLen returns the worst-case encoded size for srcLen input bytes.
func MaxEncodedLen(srcLen int) int {
	// Varint header (up to 5 bytes) plus literal overhead: one tag byte and
	// up to 4 length bytes per 2^32-byte literal run; conservative bound.
	return 5 + srcLen + srcLen/6 + 8
}

// Encode compresses src and returns the encoded block. Inputs larger than
// MaxBlockSize are rejected.
func Encode(src []byte) ([]byte, error) { return AppendEncode(nil, src) }

// AppendEncode appends the encoded block for src to dst and returns the
// extended slice; the appended bytes are exactly Encode(src). When dst has
// MaxEncodedLen(len(src)) bytes of spare capacity nothing is allocated, so a
// caller that keeps its output buffer across calls encodes allocation-free.
// Inputs larger than MaxBlockSize are rejected and dst is returned unchanged.
func AppendEncode(dst, src []byte) ([]byte, error) {
	if len(src) > MaxBlockSize {
		return dst, fmt.Errorf("compress: block of %d bytes exceeds limit", len(src))
	}
	dst = slices.Grow(dst, MaxEncodedLen(len(src)))
	dst = appendUvarint(dst, uint64(len(src)))
	if len(src) == 0 {
		return dst, nil
	}
	if len(src) < minMatch+inputMargin {
		return emitLiteral(dst, src), nil
	}

	var table [hashTableSize]int32
	for i := range table {
		table[i] = -1
	}
	// s is the next position to check; lit is the start of the pending
	// literal run.
	s, lit := 0, 0
	limit := len(src) - inputMargin
	for s < limit {
		h := hash4(load32(src, s))
		cand := table[h]
		table[h] = int32(s)
		if cand < 0 || load32(src, int(cand)) != load32(src, s) {
			s++
			continue
		}
		// Extend the match forward.
		matchStart := int(cand)
		length := minMatch
		for s+length < len(src) && src[matchStart+length] == src[s+length] {
			length++
		}
		if lit < s {
			dst = emitLiteral(dst, src[lit:s])
		}
		dst = emitCopy(dst, s-matchStart, length)
		s += length
		lit = s
	}
	if lit < len(src) {
		dst = emitLiteral(dst, src[lit:])
	}
	return dst, nil
}

func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// emitLiteral appends a literal element.
func emitLiteral(dst, lit []byte) []byte {
	for len(lit) > 0 {
		chunk := lit
		if len(chunk) > 1<<24 {
			chunk = chunk[:1<<24]
		}
		n := len(chunk) - 1
		switch {
		case n < 60:
			dst = append(dst, byte(n)<<2|tagLiteral)
		case n < 1<<8:
			dst = append(dst, 60<<2|tagLiteral, byte(n))
		case n < 1<<16:
			dst = append(dst, 61<<2|tagLiteral, byte(n), byte(n>>8))
		default:
			dst = append(dst, 62<<2|tagLiteral, byte(n), byte(n>>8), byte(n>>16))
		}
		dst = append(dst, chunk...)
		lit = lit[len(chunk):]
	}
	return dst
}

// emitCopy appends copy elements for a match of the given offset and length.
func emitCopy(dst []byte, offset, length int) []byte {
	// Long matches are split; Snappy's copy-2 covers length 1..64.
	for length > 64 {
		dst = emitOneCopy(dst, offset, 64)
		length -= 64
	}
	if length > 0 {
		dst = emitOneCopy(dst, offset, length)
	}
	return dst
}

func emitOneCopy(dst []byte, offset, length int) []byte {
	if offset < 1<<11 && length >= 4 && length <= 11 {
		// copy-1: 3-bit length-4, 3-bit offset high, 1-byte offset low.
		dst = append(dst,
			byte(offset>>8)<<5|byte(length-4)<<2|tagCopy1,
			byte(offset))
		return dst
	}
	if offset < 1<<16 {
		dst = append(dst, byte(length-1)<<2|tagCopy2, byte(offset), byte(offset>>8))
		return dst
	}
	dst = append(dst, byte(length-1)<<2|tagCopy4,
		byte(offset), byte(offset>>8), byte(offset>>16), byte(offset>>24))
	return dst
}

func readUvarint(src []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(src); i++ {
		if i >= 10 {
			return 0, 0, ErrCorrupt
		}
		c := src[i]
		v |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, ErrCorrupt
}

// Decode decompresses an encoded block.
func Decode(src []byte) ([]byte, error) {
	declared, n, err := readUvarint(src)
	if err != nil {
		return nil, err
	}
	if declared > MaxBlockSize {
		return nil, ErrTooLarge
	}
	src = src[n:]
	// Do not trust the header for the initial allocation: a corrupt block
	// could declare MaxBlockSize and force a giant allocation before the
	// body is validated. The body length bounds the real output anyway.
	capHint := int(declared)
	if capHint > 8*len(src)+64 {
		capHint = 8*len(src) + 64
	}
	dst := make([]byte, 0, capHint)
	for len(src) > 0 {
		tag := src[0]
		switch tag & 3 {
		case tagLiteral:
			length := int(tag >> 2)
			hdr := 1
			switch length {
			case 60:
				if len(src) < 2 {
					return nil, ErrCorrupt
				}
				length = int(src[1])
				hdr = 2
			case 61:
				if len(src) < 3 {
					return nil, ErrCorrupt
				}
				length = int(src[1]) | int(src[2])<<8
				hdr = 3
			case 62:
				if len(src) < 4 {
					return nil, ErrCorrupt
				}
				length = int(src[1]) | int(src[2])<<8 | int(src[3])<<16
				hdr = 4
			case 63:
				if len(src) < 5 {
					return nil, ErrCorrupt
				}
				length = int(src[1]) | int(src[2])<<8 | int(src[3])<<16 | int(src[4])<<24
				hdr = 5
			}
			length++
			if length < 0 || len(src) < hdr+length {
				return nil, ErrCorrupt
			}
			dst = append(dst, src[hdr:hdr+length]...)
			src = src[hdr+length:]

		case tagCopy1:
			if len(src) < 2 {
				return nil, ErrCorrupt
			}
			length := 4 + int(tag>>2)&7
			offset := int(tag&0xe0)<<3 | int(src[1])
			src = src[2:]
			if err := appendCopy(&dst, offset, length); err != nil {
				return nil, err
			}

		case tagCopy2:
			if len(src) < 3 {
				return nil, ErrCorrupt
			}
			length := 1 + int(tag>>2)
			offset := int(src[1]) | int(src[2])<<8
			src = src[3:]
			if err := appendCopy(&dst, offset, length); err != nil {
				return nil, err
			}

		case tagCopy4:
			if len(src) < 5 {
				return nil, ErrCorrupt
			}
			length := 1 + int(tag>>2)
			offset := int(src[1]) | int(src[2])<<8 | int(src[3])<<16 | int(src[4])<<24
			src = src[5:]
			if err := appendCopy(&dst, offset, length); err != nil {
				return nil, err
			}
		}
		if len(dst) > int(declared) {
			return nil, ErrCorrupt
		}
	}
	if len(dst) != int(declared) {
		return nil, fmt.Errorf("%w: decoded %d bytes, header declares %d", ErrCorrupt, len(dst), declared)
	}
	return dst, nil
}

// appendCopy copies length bytes from offset back in dst, byte by byte so
// overlapping copies (run-length encoding) work.
func appendCopy(dst *[]byte, offset, length int) error {
	d := *dst
	if offset <= 0 || offset > len(d) || length < 0 {
		return ErrCorrupt
	}
	pos := len(d) - offset
	for i := 0; i < length; i++ {
		d = append(d, d[pos+i])
	}
	*dst = d
	return nil
}
