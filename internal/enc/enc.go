// Package enc implements Aion's variable-size temporal record layout
// (Sec 4.2, Fig 3). Records come in two flavours: fully materialized graph
// entities and deltas from the last update. The first byte (the header)
// carries the entity type (node, relationship, or neighbourhood) and state
// (deleted / delta). Strings are replaced by references into a string store,
// flagged with a label's deleted bit, or a property's deleted bit or value
// type: Fig 3's fixed 4 bytes, flags on top, in the host's records
// (NewFixedRefCodec), and uvarint(id<<4 | flags) in Aion's stores (NewCodec).
package enc

import (
	"cmp"
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

// Reference flags: the deleted bit or a 3-bit value type, beside the id that
// fits the low 28 bits (strstore.MaxRef) — uvarint(id<<refFlagBits | flags),
// or a fixed ref's big-endian flags<<fixedFlagShift | id.
const (
	refDeletedBit  = 1 << 3
	refFlagBits    = 4
	fixedFlagShift = 32 - refFlagBits
)

// Codec encodes and decodes temporal records against a shared string store.
type Codec struct {
	Strings   *strstore.Store
	fixedRefs bool // 4-byte refs, as Fig 3 and the host's Neo4j store lay them out
}

// NewCodec returns a codec over the given string store with uvarint refs.
func NewCodec(s *strstore.Store) *Codec { return &Codec{Strings: s} }

// NewFixedRefCodec is NewCodec with Fig 3's 4-byte refs: the host's codec,
// which keeps the width of the Neo4j store it emulates.
func NewFixedRefCodec(s *strstore.Store) *Codec { return &Codec{Strings: s, fixedRefs: true} }

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
	if c.fixedRefs {
		return binary.BigEndian.AppendUint32(buf, flags<<fixedFlagShift|uint32(r))
	}
	return binary.AppendUvarint(buf, uint64(r)<<refFlagBits|uint64(flags))
}

// readRef reads a ref and its flags; a uvarint must be minimal and name an id <= MaxRef.
func (c *Codec) readRef(b []byte) (strstore.Ref, uint32, []byte, error) {
	if c.fixedRefs {
		if len(b) < 4 {
			return 0, 0, nil, fmt.Errorf("enc: short ref")
		}
		v := binary.BigEndian.Uint32(b)
		return strstore.Ref(v & strstore.MaxRef), v >> fixedFlagShift, b[4:], nil
	}
	v, rest, err := readUvarint(b, "ref")
	if err == nil && v>>refFlagBits > strstore.MaxRef {
		err = fmt.Errorf("enc: ref %d past the id space", v>>refFlagBits)
	}
	return strstore.Ref(v >> refFlagBits), uint32(v & (1<<refFlagBits - 1)), rest, err
}

// readString reads an unflagged ref as the string table's value for it.
func (c *Codec) readString(b []byte) (model.Value, []byte, error) {
	id, flags, rest, err := c.readRef(b)
	if err != nil || flags != 0 {
		return model.Value{}, nil, cmp.Or(err, fmt.Errorf("enc: flags %#x on a string ref", flags))
	}
	v, err := c.Strings.LookupValue(id) // the table's box: a string decodes without allocating
	return v, rest, err
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

// readLabels refuses a typed label ref, and an added label after a removed one.
func (c *Codec) readLabels(b []byte) (added, removed []string, rest []byte, err error) {
	n, b, err := readUvarint(b, "label count")
	if err != nil {
		return nil, nil, nil, err
	}
	for i := uint64(0); i < n; i++ {
		id, flags, rest, err := c.readRef(b)
		if err != nil {
			return nil, nil, nil, err
		}
		if flags&^refDeletedBit != 0 || flags == 0 && len(removed) > 0 {
			return nil, nil, nil, fmt.Errorf("enc: label ref flags %#x out of place", flags)
		}
		s, err := c.Strings.Lookup(id)
		if err != nil {
			return nil, nil, nil, err
		}
		if b = rest; flags != 0 {
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
		x, rest, err := readVarint(b)
		return model.IntValue(x), rest, err
	case model.KindFloat:
		if len(b) < 8 {
			return model.Value{}, nil, fmt.Errorf("enc: short float")
		}
		return model.FloatValue(math.Float64frombits(binary.BigEndian.Uint64(b))), b[8:], nil
	case model.KindBool:
		if len(b) < 1 || b[0] > 1 {
			return model.Value{}, nil, fmt.Errorf("enc: bad bool")
		}
		return model.BoolValue(b[0] != 0), b[1:], nil
	case model.KindString:
		return c.readString(b)
	case model.KindIntArray:
		n, b, err := readUvarint(b, "array len")
		if err != nil || n > uint64(len(b)) { // each element needs >= 1 byte
			return model.Value{}, nil, fmt.Errorf("enc: bad array len")
		}
		a := make([]int64, n)
		for i := range a {
			if a[i], b, err = readVarint(b); err != nil {
				return model.Value{}, nil, err
			}
		}
		return model.IntArrayValue(a), b, nil
	case model.KindFloatArray:
		n, b, err := readUvarint(b, "array len")
		if err != nil || n > uint64(len(b))/8 { // overflow-safe bound
			return model.Value{}, nil, fmt.Errorf("enc: bad array len")
		}
		a := make([]float64, n)
		for i := range a {
			a[i] = math.Float64frombits(binary.BigEndian.Uint64(b))
			b = b[8:]
		}
		return model.FloatArrayValue(a), b, nil
	case model.KindStringArray:
		n, b, err := readUvarint(b, "array len")
		if err != nil || n > uint64(len(b)) { // each ref needs >= 1 byte
			return model.Value{}, nil, fmt.Errorf("enc: bad array len")
		}
		a := make([]string, n)
		for i := range a {
			v, rest, err := c.readString(b)
			if err != nil {
				return model.Value{}, nil, err
			}
			a[i], b = v.Str(), rest
		}
		return model.StringArrayValue(a), b, nil
	}
	return model.Value{}, nil, fmt.Errorf("enc: undecodable kind %v", k)
}

// appendProps encodes set and deleted properties: count, then per property a
// flagged key reference (deleted bit, type tag) followed by the value
// payload (omitted for deletions). Keys are emitted in sorted order so the
// same logical update always encodes to the same bytes, whatever order its
// map iterates in: the golden-bytes tests rely on it.
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
		buf = c.appendRef(buf, r, tag)
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

// readProps reads a property list into *set, making the map when a set needs
// one; a deletion is appended to *del or, with del nil, deleted from *set, so
// that a delta folds into a version's own map. It refuses what appendProps
// never writes: unsorted keys, a set property after a deletion, a deletion
// with a type.
func (c *Codec) readProps(b []byte, set *model.Properties, del *[]string) ([]byte, error) {
	n, b, err := readUvarint(b, "prop count")
	if err != nil {
		return nil, err
	}
	prev, sets, dels := "", 0, 0
	for i := uint64(0); i < n; i++ {
		id, flags, rest, err := c.readRef(b)
		if err != nil {
			return nil, err
		}
		key, err := c.Strings.Lookup(id)
		if err != nil {
			return nil, err
		}
		if flags == refDeletedBit {
			if dels, b = dels+1, rest; del != nil {
				*del = append(*del, key)
			} else {
				delete(*set, key)
			}
			continue
		}
		if flags&refDeletedBit != 0 || dels > 0 || sets > 0 && key <= prev {
			return nil, fmt.Errorf("enc: property %q out of order or with flags %#x", key, flags)
		}
		var v model.Value
		if v, b, err = c.readValue(rest, kindFromTag(flags)); err != nil {
			return nil, err
		}
		if *set == nil {
			*set = make(model.Properties)
		}
		(*set)[key], prev, sets = v, key, sets+1
	}
	return b, nil
}
