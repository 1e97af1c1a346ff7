// Package protowire implements a protocol-buffer compatible wire format from
// first principles: varint/zigzag/tag primitives, descriptor-driven dynamic
// messages, and a generator of fleet-representative message corpora in the
// spirit of HyperProtoBench. It is the serialization workload of the SoC
// model validation (Table 8) and the encoder of the pprof profile export.
package protowire

import (
	"errors"
	"fmt"
)

// Type is a protobuf wire type.
type Type int

// The four wire types used by proto3 (groups are not supported).
const (
	VarintType  Type = 0
	Fixed64Type Type = 1
	BytesType   Type = 2
	Fixed32Type Type = 5
)

// Errors returned by the consume functions.
var (
	ErrTruncated = errors.New("protowire: truncated message")
	ErrOverflow  = errors.New("protowire: varint overflows 64 bits")
	ErrField     = errors.New("protowire: invalid field number")
	ErrWireType  = errors.New("protowire: unknown wire type")
)

// MaxFieldNumber is the largest valid field number (2^29 - 1).
const MaxFieldNumber = 1<<29 - 1

// AppendVarint appends v in base-128 varint encoding.
func AppendVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// ConsumeVarint decodes a varint from the front of b, returning the value and
// the number of bytes consumed.
func ConsumeVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b); i++ {
		if i == 10 {
			return 0, 0, ErrOverflow
		}
		c := b[i]
		if i == 9 && c > 1 {
			return 0, 0, ErrOverflow
		}
		v |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, ErrTruncated
}

// SizeVarint returns the encoded size of v in bytes.
func SizeVarint(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// EncodeZigZag maps a signed integer to an unsigned one with small absolute
// values staying small (sint32/sint64 encoding).
func EncodeZigZag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// DecodeZigZag inverts EncodeZigZag.
func DecodeZigZag(v uint64) int64 { return int64(v>>1) ^ -int64(v&1) }

// AppendTag appends the key for (field number, wire type).
func AppendTag(b []byte, num int, t Type) []byte {
	return AppendVarint(b, uint64(num)<<3|uint64(t))
}

// ConsumeTag decodes a field key, returning field number, wire type and bytes
// consumed.
func ConsumeTag(b []byte) (int, Type, int, error) {
	v, n, err := ConsumeVarint(b)
	if err != nil {
		return 0, 0, 0, err
	}
	num := int(v >> 3)
	if num <= 0 || num > MaxFieldNumber {
		return 0, 0, 0, ErrField
	}
	t := Type(v & 7)
	switch t {
	case VarintType, Fixed64Type, BytesType, Fixed32Type:
		return num, t, n, nil
	}
	return 0, 0, 0, ErrWireType
}

// AppendFixed32 appends v little-endian.
func AppendFixed32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// ConsumeFixed32 decodes a little-endian fixed32.
func ConsumeFixed32(b []byte) (uint32, int, error) {
	if len(b) < 4 {
		return 0, 0, ErrTruncated
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, 4, nil
}

// AppendFixed64 appends v little-endian.
func AppendFixed64(b []byte, v uint64) []byte {
	return append(b,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// ConsumeFixed64 decodes a little-endian fixed64.
func ConsumeFixed64(b []byte) (uint64, int, error) {
	if len(b) < 8 {
		return 0, 0, ErrTruncated
	}
	v := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	return v, 8, nil
}

// AppendBytes appends a length-delimited byte string.
func AppendBytes(b, v []byte) []byte {
	b = AppendVarint(b, uint64(len(v)))
	return append(b, v...)
}

// ConsumeBytes decodes a length-delimited byte string. The returned slice
// aliases b.
func ConsumeBytes(b []byte) ([]byte, int, error) {
	l, n, err := ConsumeVarint(b)
	if err != nil {
		return nil, 0, err
	}
	if l > uint64(len(b)-n) {
		return nil, 0, ErrTruncated
	}
	return b[n : n+int(l)], n + int(l), nil
}

// SkipValue skips over one value of the given wire type, returning the bytes
// consumed.
func SkipValue(b []byte, t Type) (int, error) {
	switch t {
	case VarintType:
		_, n, err := ConsumeVarint(b)
		return n, err
	case Fixed64Type:
		if len(b) < 8 {
			return 0, ErrTruncated
		}
		return 8, nil
	case Fixed32Type:
		if len(b) < 4 {
			return 0, ErrTruncated
		}
		return 4, nil
	case BytesType:
		_, n, err := ConsumeBytes(b)
		return n, err
	}
	return 0, fmt.Errorf("%w: %d", ErrWireType, t)
}
