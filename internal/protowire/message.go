package protowire

import (
	"fmt"
	"sort"
	"strings"
)

// Kind is the declared type of a message field.
type Kind int

// Field kinds supported by the dynamic message layer.
const (
	Int64Kind  Kind = iota // varint
	SInt64Kind             // zigzag varint
	BoolKind               // varint 0/1
	Fixed64Kind
	DoubleKind
	Fixed32Kind
	StringKind
	BytesKind
	MessageKind
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	names := [...]string{"int64", "sint64", "bool", "fixed64", "double", "fixed32", "string", "bytes", "message"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// wireType returns the wire type a kind encodes with.
func (k Kind) wireType() Type {
	switch k {
	case Int64Kind, SInt64Kind, BoolKind:
		return VarintType
	case Fixed64Kind, DoubleKind:
		return Fixed64Type
	case Fixed32Kind:
		return Fixed32Type
	default:
		return BytesType
	}
}

// Field describes one field of a message type.
type Field struct {
	Num      int
	Name     string
	Kind     Kind
	Repeated bool
	// Msg is the nested message descriptor; required iff Kind == MessageKind.
	Msg *Descriptor
}

// Descriptor describes a message type: an ordered set of fields.
type Descriptor struct {
	Name   string
	Fields []Field
	byNum  map[int]*Field
}

// NewDescriptor builds a descriptor and validates it: field numbers must be
// unique and in range, and message-kind fields must carry a descriptor.
func NewDescriptor(name string, fields []Field) (*Descriptor, error) {
	d := &Descriptor{Name: name, Fields: fields, byNum: make(map[int]*Field, len(fields))}
	for i := range fields {
		f := &d.Fields[i]
		if f.Num <= 0 || f.Num > MaxFieldNumber {
			return nil, fmt.Errorf("protowire: field %q: %w", f.Name, ErrField)
		}
		if _, dup := d.byNum[f.Num]; dup {
			return nil, fmt.Errorf("protowire: duplicate field number %d in %q", f.Num, name)
		}
		if (f.Kind == MessageKind) != (f.Msg != nil) {
			return nil, fmt.Errorf("protowire: field %q: message descriptor mismatch", f.Name)
		}
		d.byNum[f.Num] = f
	}
	return d, nil
}

// MustDescriptor is NewDescriptor that panics on error, for static schemas.
func MustDescriptor(name string, fields []Field) *Descriptor {
	d, err := NewDescriptor(name, fields)
	if err != nil {
		panic(err)
	}
	return d
}

// FieldByNum returns the field with the given number, or nil.
func (d *Descriptor) FieldByNum(num int) *Field { return d.byNum[num] }

// Value is a dynamic field value. Exactly one member is meaningful for a
// given kind: I for the varint/fixed integer kinds (bool as 0/1, sint64
// pre-zigzag, double as Float64bits), S for string/bytes kinds, and M for
// nested messages.
type Value struct {
	I uint64
	S []byte
	M *Message
}

// Message is a dynamic message instance.
type Message struct {
	Desc   *Descriptor
	fields map[int][]Value
}

// NewMessage creates an empty message of the given type.
func NewMessage(d *Descriptor) *Message {
	return &Message{Desc: d, fields: map[int][]Value{}}
}

// SetInt sets (or appends, for repeated fields) an integer-kind value.
func (m *Message) SetInt(num int, v uint64) *Message { return m.add(num, Value{I: v}) }

// SetBytes sets (or appends) a string/bytes-kind value.
func (m *Message) SetBytes(num int, v []byte) *Message { return m.add(num, Value{S: v}) }

// SetMsg sets (or appends) a nested message value.
func (m *Message) SetMsg(num int, v *Message) *Message { return m.add(num, Value{M: v}) }

func (m *Message) add(num int, v Value) *Message {
	f := m.Desc.FieldByNum(num)
	if f == nil {
		panic(fmt.Sprintf("protowire: no field %d in %q", num, m.Desc.Name))
	}
	if !f.Repeated {
		m.fields[num] = m.fields[num][:0]
	}
	m.fields[num] = append(m.fields[num], v)
	return m
}

// Get returns the values set for a field number.
func (m *Message) Get(num int) []Value { return m.fields[num] }

// Len returns the number of populated fields.
func (m *Message) Len() int { return len(m.fields) }

// fieldNums returns populated field numbers in ascending order so marshaling
// is deterministic.
func (m *Message) fieldNums() []int {
	nums := make([]int, 0, len(m.fields))
	for n := range m.fields {
		nums = append(nums, n)
	}
	sort.Ints(nums)
	return nums
}

// Marshal appends the wire encoding of m to b and returns the result.
func (m *Message) Marshal(b []byte) []byte {
	for _, num := range m.fieldNums() {
		f := m.Desc.FieldByNum(num)
		for _, v := range m.fields[num] {
			b = AppendTag(b, num, f.Kind.wireType())
			switch f.Kind {
			case Int64Kind, BoolKind:
				b = AppendVarint(b, v.I)
			case SInt64Kind:
				b = AppendVarint(b, EncodeZigZag(int64(v.I)))
			case Fixed64Kind, DoubleKind:
				b = AppendFixed64(b, v.I)
			case Fixed32Kind:
				b = AppendFixed32(b, uint32(v.I))
			case StringKind, BytesKind:
				b = AppendBytes(b, v.S)
			case MessageKind:
				inner := v.M.Marshal(nil)
				b = AppendBytes(b, inner)
			}
		}
	}
	return b
}

// Size returns the exact encoded size of m in bytes.
func (m *Message) Size() int {
	size := 0
	for num, vals := range m.fields {
		f := m.Desc.FieldByNum(num)
		tag := SizeVarint(uint64(num)<<3 | uint64(f.Kind.wireType()))
		for _, v := range vals {
			size += tag
			switch f.Kind {
			case Int64Kind, BoolKind:
				size += SizeVarint(v.I)
			case SInt64Kind:
				size += SizeVarint(EncodeZigZag(int64(v.I)))
			case Fixed64Kind, DoubleKind:
				size += 8
			case Fixed32Kind:
				size += 4
			case StringKind, BytesKind:
				size += SizeVarint(uint64(len(v.S))) + len(v.S)
			case MessageKind:
				inner := v.M.Size()
				size += SizeVarint(uint64(inner)) + inner
			}
		}
	}
	return size
}

// Unmarshal decodes b into a new message of type d. Fields not present in the
// descriptor are skipped (proto unknown-field semantics); type mismatches
// between the descriptor and the wire type are errors.
func Unmarshal(d *Descriptor, b []byte) (*Message, error) {
	m := NewMessage(d)
	for len(b) > 0 {
		num, wt, n, err := ConsumeTag(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		f := d.FieldByNum(num)
		if f == nil {
			skip, err := SkipValue(b, wt)
			if err != nil {
				return nil, err
			}
			b = b[skip:]
			continue
		}
		if want := f.Kind.wireType(); want != wt {
			return nil, fmt.Errorf("protowire: field %q: wire type %d, want %d", f.Name, wt, want)
		}
		switch f.Kind {
		case Int64Kind, BoolKind:
			v, n, err := ConsumeVarint(b)
			if err != nil {
				return nil, err
			}
			m.add(num, Value{I: v})
			b = b[n:]
		case SInt64Kind:
			v, n, err := ConsumeVarint(b)
			if err != nil {
				return nil, err
			}
			m.add(num, Value{I: uint64(DecodeZigZag(v))})
			b = b[n:]
		case Fixed64Kind, DoubleKind:
			v, n, err := ConsumeFixed64(b)
			if err != nil {
				return nil, err
			}
			m.add(num, Value{I: v})
			b = b[n:]
		case Fixed32Kind:
			v, n, err := ConsumeFixed32(b)
			if err != nil {
				return nil, err
			}
			m.add(num, Value{I: uint64(v)})
			b = b[n:]
		case StringKind, BytesKind:
			v, n, err := ConsumeBytes(b)
			if err != nil {
				return nil, err
			}
			cp := make([]byte, len(v))
			copy(cp, v)
			m.add(num, Value{S: cp})
			b = b[n:]
		case MessageKind:
			v, n, err := ConsumeBytes(b)
			if err != nil {
				return nil, err
			}
			inner, err := Unmarshal(f.Msg, v)
			if err != nil {
				return nil, fmt.Errorf("in %q.%s: %w", d.Name, f.Name, err)
			}
			m.add(num, Value{M: inner})
			b = b[n:]
		}
	}
	return m, nil
}

// Equal reports whether two messages have identical descriptors (by pointer)
// and identical field contents.
func Equal(a, b *Message) bool {
	if a.Desc != b.Desc || len(a.fields) != len(b.fields) {
		return false
	}
	for num, av := range a.fields {
		bv, ok := b.fields[num]
		if !ok || len(av) != len(bv) {
			return false
		}
		f := a.Desc.FieldByNum(num)
		for i := range av {
			switch f.Kind {
			case StringKind, BytesKind:
				if string(av[i].S) != string(bv[i].S) {
					return false
				}
			case MessageKind:
				if !Equal(av[i].M, bv[i].M) {
					return false
				}
			default:
				if av[i].I != bv[i].I {
					return false
				}
			}
		}
	}
	return true
}

// String renders the message in a compact debug form: fields in ascending
// number order, nested messages in braces, byte strings quoted and
// truncated. It is for logs and test failure output, not a wire format.
func (m *Message) String() string {
	var b strings.Builder
	b.WriteString(m.Desc.Name)
	b.WriteByte('{')
	first := true
	for _, num := range m.fieldNums() {
		f := m.Desc.FieldByNum(num)
		for _, v := range m.fields[num] {
			if !first {
				b.WriteByte(' ')
			}
			first = false
			fmt.Fprintf(&b, "%s:", f.Name)
			switch f.Kind {
			case StringKind, BytesKind:
				s := v.S
				if len(s) > 32 {
					fmt.Fprintf(&b, "%q…(%dB)", s[:32], len(s))
				} else {
					fmt.Fprintf(&b, "%q", s)
				}
			case MessageKind:
				b.WriteString(v.M.String())
			case SInt64Kind:
				fmt.Fprintf(&b, "%d", int64(v.I))
			default:
				fmt.Fprintf(&b, "%d", v.I)
			}
		}
	}
	b.WriteByte('}')
	return b.String()
}
