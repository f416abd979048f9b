// Package enc implements Aion's variable-size temporal record layout
// (Sec 4.2, Fig 3). Records come in two flavours: fully materialized graph
// entities and deltas from the last update. The first byte (the header)
// carries the entity type (node, relationship, or neighbourhood) and state
// (deleted / delta). Strings are replaced by 4-byte references into a string
// store; a label reference reserves its most significant bit to mark
// deletion, and a property reference reserves its top bits for state
// (deleted) and the value's data type.
package enc

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"aion/internal/model"
	"aion/internal/strstore"
)

// EntityType identifies what a record describes.
type EntityType uint8

const (
	// TypeNode is a node record (Id, Time, Labels, Props).
	TypeNode EntityType = iota
	// TypeRel is a relationship record (Id, Time, Src, Tgt, Label, Props).
	TypeRel
	// TypeNeigh is a neighbourhood record (Id, Time, Src, Tgt).
	TypeNeigh
)

// Header bit layout.
const (
	headerTypeMask   = 0b0000_0011
	headerDeletedBit = 0b0000_0100
	headerDeltaBit   = 0b0000_1000
)

// Reference flag layout. A 4-byte string reference keeps the low 28 bits for
// the string id (strstore.MaxRef); label refs use bit 31 for "deleted";
// property refs use bit 31 for "deleted" and bits 30..28 for the value type.
const (
	refDeletedBit = 1 << 31
	refTypeShift  = 28
	refIDMask     = strstore.MaxRef
)

// Codec encodes and decodes temporal records against a shared string store.
type Codec struct {
	Strings *strstore.Store
}

// NewCodec returns a codec over the given string store.
func NewCodec(s *strstore.Store) *Codec { return &Codec{Strings: s} }

func valueTypeTag(k model.ValueKind) (uint32, error) {
	switch k {
	case model.KindInt:
		return 0, nil
	case model.KindFloat:
		return 1, nil
	case model.KindBool:
		return 2, nil
	case model.KindString:
		return 3, nil
	case model.KindIntArray:
		return 4, nil
	case model.KindFloatArray:
		return 5, nil
	case model.KindStringArray:
		return 6, nil
	}
	return 0, fmt.Errorf("enc: unencodable value kind %v", k)
}

func kindFromTag(tag uint32) model.ValueKind {
	switch tag {
	case 0:
		return model.KindInt
	case 1:
		return model.KindFloat
	case 2:
		return model.KindBool
	case 3:
		return model.KindString
	case 4:
		return model.KindIntArray
	case 5:
		return model.KindFloatArray
	case 6:
		return model.KindStringArray
	}
	return model.KindNull
}

func (c *Codec) appendRef(buf []byte, r strstore.Ref, flags uint32) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(r)|flags)
	return append(buf, b[:]...)
}

func readRef(b []byte) (id strstore.Ref, flags uint32, rest []byte, err error) {
	if len(b) < 4 {
		return 0, 0, nil, fmt.Errorf("enc: short ref")
	}
	v := binary.BigEndian.Uint32(b)
	return strstore.Ref(v & refIDMask), v &^ refIDMask, b[4:], nil
}

// appendLabels encodes the label set: count, then refs (deleted labels get
// the deleted bit).
func (c *Codec) appendLabels(buf []byte, added, removed []string) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(added)+len(removed)))
	for _, l := range added {
		r, err := c.Strings.Intern(l)
		if err != nil {
			return nil, err
		}
		buf = c.appendRef(buf, r, 0)
	}
	for _, l := range removed {
		r, err := c.Strings.Intern(l)
		if err != nil {
			return nil, err
		}
		buf = c.appendRef(buf, r, refDeletedBit)
	}
	return buf, nil
}

func (c *Codec) readLabels(b []byte) (added, removed []string, rest []byte, err error) {
	n, w := binary.Uvarint(b)
	if w <= 0 {
		return nil, nil, nil, fmt.Errorf("enc: bad label count")
	}
	b = b[w:]
	for i := uint64(0); i < n; i++ {
		var id strstore.Ref
		var flags uint32
		id, flags, b, err = readRef(b)
		if err != nil {
			return nil, nil, nil, err
		}
		s, err := c.Strings.Lookup(id)
		if err != nil {
			return nil, nil, nil, err
		}
		if flags&refDeletedBit != 0 {
			removed = append(removed, s)
		} else {
			added = append(added, s)
		}
	}
	return added, removed, b, nil
}

func (c *Codec) appendValue(buf []byte, v model.Value) ([]byte, error) {
	switch v.Kind() {
	case model.KindInt:
		return binary.AppendVarint(buf, v.Int()), nil
	case model.KindFloat:
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], math.Float64bits(v.Float()))
		return append(buf, b[:]...), nil
	case model.KindBool:
		if v.Bool() {
			return append(buf, 1), nil
		}
		return append(buf, 0), nil
	case model.KindString:
		r, err := c.Strings.Intern(v.Str())
		if err != nil {
			return nil, err
		}
		return c.appendRef(buf, r, 0), nil
	case model.KindIntArray:
		a := v.IntArray()
		buf = binary.AppendUvarint(buf, uint64(len(a)))
		for _, x := range a {
			buf = binary.AppendVarint(buf, x)
		}
		return buf, nil
	case model.KindFloatArray:
		a := v.FloatArray()
		buf = binary.AppendUvarint(buf, uint64(len(a)))
		for _, x := range a {
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], math.Float64bits(x))
			buf = append(buf, b[:]...)
		}
		return buf, nil
	case model.KindStringArray:
		a := v.StringArray()
		buf = binary.AppendUvarint(buf, uint64(len(a)))
		for _, x := range a {
			r, err := c.Strings.Intern(x)
			if err != nil {
				return nil, err
			}
			buf = c.appendRef(buf, r, 0)
		}
		return buf, nil
	}
	return nil, fmt.Errorf("enc: unencodable value kind %v", v.Kind())
}

func (c *Codec) readValue(b []byte, k model.ValueKind) (model.Value, []byte, error) {
	switch k {
	case model.KindInt:
		x, w := binary.Varint(b)
		if w <= 0 {
			return model.Value{}, nil, fmt.Errorf("enc: bad int")
		}
		return model.IntValue(x), b[w:], nil
	case model.KindFloat:
		if len(b) < 8 {
			return model.Value{}, nil, fmt.Errorf("enc: short float")
		}
		return model.FloatValue(math.Float64frombits(binary.BigEndian.Uint64(b))), b[8:], nil
	case model.KindBool:
		if len(b) < 1 {
			return model.Value{}, nil, fmt.Errorf("enc: short bool")
		}
		return model.BoolValue(b[0] != 0), b[1:], nil
	case model.KindString:
		id, _, rest, err := readRef(b)
		if err != nil {
			return model.Value{}, nil, err
		}
		v, err := c.Strings.LookupValue(id) // the table's box: a string decodes without allocating
		if err != nil {
			return model.Value{}, nil, err
		}
		return v, rest, nil
	case model.KindIntArray:
		n, w := binary.Uvarint(b)
		if w <= 0 || n > uint64(len(b)) { // each element needs >= 1 byte
			return model.Value{}, nil, fmt.Errorf("enc: bad array len")
		}
		b = b[w:]
		a := make([]int64, n)
		for i := range a {
			x, w := binary.Varint(b)
			if w <= 0 {
				return model.Value{}, nil, fmt.Errorf("enc: bad int elem")
			}
			a[i], b = x, b[w:]
		}
		return model.IntArrayValue(a), b, nil
	case model.KindFloatArray:
		n, w := binary.Uvarint(b)
		if w <= 0 || n > uint64(len(b))/8 { // overflow-safe bound
			return model.Value{}, nil, fmt.Errorf("enc: bad array len")
		}
		b = b[w:]
		a := make([]float64, n)
		for i := range a {
			if len(b) < 8 {
				return model.Value{}, nil, fmt.Errorf("enc: short float elem")
			}
			a[i] = math.Float64frombits(binary.BigEndian.Uint64(b))
			b = b[8:]
		}
		return model.FloatArrayValue(a), b, nil
	case model.KindStringArray:
		n, w := binary.Uvarint(b)
		if w <= 0 || n > uint64(len(b))/4 { // each ref is 4 bytes; overflow-safe
			return model.Value{}, nil, fmt.Errorf("enc: bad array len")
		}
		b = b[w:]
		a := make([]string, n)
		for i := range a {
			id, _, rest, err := readRef(b)
			if err != nil {
				return model.Value{}, nil, err
			}
			s, err := c.Strings.Lookup(id)
			if err != nil {
				return model.Value{}, nil, err
			}
			a[i], b = s, rest
		}
		return model.StringArrayValue(a), b, nil
	}
	return model.Value{}, nil, fmt.Errorf("enc: undecodable kind %v", k)
}

// appendProps encodes set and deleted properties: count, then per property a
// flagged key reference (deleted bit, type tag) followed by the value
// payload (omitted for deletions). Keys are emitted in sorted order so the
// same logical update always encodes to the same bytes — the snapshot
// writers rely on this for the sequential/parallel byte-identity guarantee.
func (c *Codec) appendProps(buf []byte, set model.Properties, del []string) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(set)+len(del)))
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := set[k]
		tag, err := valueTypeTag(v.Kind())
		if err != nil {
			return nil, err
		}
		r, err := c.Strings.Intern(k)
		if err != nil {
			return nil, err
		}
		buf = c.appendRef(buf, r, tag<<refTypeShift)
		buf, err = c.appendValue(buf, v)
		if err != nil {
			return nil, err
		}
	}
	for _, k := range del {
		r, err := c.Strings.Intern(k)
		if err != nil {
			return nil, err
		}
		buf = c.appendRef(buf, r, refDeletedBit)
	}
	return buf, nil
}

func (c *Codec) readProps(b []byte) (set model.Properties, del []string, rest []byte, err error) {
	n, w := binary.Uvarint(b)
	if w <= 0 {
		return nil, nil, nil, fmt.Errorf("enc: bad prop count")
	}
	b = b[w:]
	for i := uint64(0); i < n; i++ {
		var id strstore.Ref
		var flags uint32
		id, flags, b, err = readRef(b)
		if err != nil {
			return nil, nil, nil, err
		}
		key, err := c.Strings.Lookup(id)
		if err != nil {
			return nil, nil, nil, err
		}
		if flags&refDeletedBit != 0 {
			del = append(del, key)
			continue
		}
		kind := kindFromTag((flags >> refTypeShift) & 0b111)
		var v model.Value
		v, b, err = c.readValue(b, kind)
		if err != nil {
			return nil, nil, nil, err
		}
		if set == nil {
			set = make(model.Properties)
		}
		set[key] = v
	}
	return set, del, b, nil
}
