package enc

import (
	"encoding/binary"
	"fmt"

	"aion/internal/model"
)

// Update record wire format (used by the TimeStore log and, re-keyed, by the
// LineageStore values):
//
//	header(1) | ts uvarint | ids... | labels | props
//
// The header packs the entity type and the deleted/delta state per Fig 3.
// Deleted entities require space only for their ID and timestamp.

func headerFor(u model.Update) byte {
	var h byte
	switch u.Kind {
	case model.OpAddNode, model.OpDeleteNode, model.OpUpdateNode:
		h = byte(TypeNode)
	default:
		h = byte(TypeRel)
	}
	switch u.Kind {
	case model.OpDeleteNode, model.OpDeleteRel:
		h |= headerDeletedBit
	case model.OpUpdateNode, model.OpUpdateRel:
		h |= headerDeltaBit
	}
	return h
}

// AppendUpdate encodes u onto buf and returns the extended slice.
func (c *Codec) AppendUpdate(buf []byte, u model.Update) ([]byte, error) {
	buf = append(buf, headerFor(u))
	buf = binary.AppendUvarint(buf, uint64(u.TS))
	var err error
	switch u.Kind {
	case model.OpAddNode, model.OpUpdateNode:
		buf = binary.AppendUvarint(buf, uint64(u.NodeID))
		if buf, err = c.appendLabels(buf, u.AddLabels, u.DelLabels); err != nil {
			return nil, err
		}
		if buf, err = c.appendProps(buf, u.SetProps, u.DelProps); err != nil {
			return nil, err
		}
	case model.OpDeleteNode:
		buf = binary.AppendUvarint(buf, uint64(u.NodeID))
	case model.OpAddRel:
		buf = binary.AppendUvarint(buf, uint64(u.RelID))
		buf = binary.AppendUvarint(buf, uint64(u.Src))
		buf = binary.AppendUvarint(buf, uint64(u.Tgt))
		r, err := c.Strings.Intern(u.RelLabel)
		if err != nil {
			return nil, err
		}
		buf = c.appendRef(buf, r, 0)
		if buf, err = c.appendProps(buf, u.SetProps, u.DelProps); err != nil {
			return nil, err
		}
	case model.OpUpdateRel:
		buf = binary.AppendUvarint(buf, uint64(u.RelID))
		buf = binary.AppendUvarint(buf, uint64(u.Src))
		buf = binary.AppendUvarint(buf, uint64(u.Tgt))
		if buf, err = c.appendProps(buf, u.SetProps, u.DelProps); err != nil {
			return nil, err
		}
	case model.OpDeleteRel:
		buf = binary.AppendUvarint(buf, uint64(u.RelID))
		buf = binary.AppendUvarint(buf, uint64(u.Src))
		buf = binary.AppendUvarint(buf, uint64(u.Tgt))
	default:
		return nil, fmt.Errorf("enc: unknown op kind %v", u.Kind)
	}
	return buf, nil
}

// EncodeUpdate encodes u into a fresh buffer.
func (c *Codec) EncodeUpdate(u model.Update) ([]byte, error) {
	return c.AppendUpdate(make([]byte, 0, 64), u)
}

// PeekTS returns the timestamp of a record produced by AppendUpdate from
// its first bytes (header(1) | ts uvarint) without decoding the rest: what
// recovery needs to number a record it will not apply.
func PeekTS(b []byte) (model.Timestamp, error) {
	if len(b) > 0 {
		if ts, w := binary.Uvarint(b[1:]); w > 0 {
			return model.Timestamp(ts), nil
		}
	}
	return 0, fmt.Errorf("enc: bad update record header")
}

// PeekState reports, from the header byte of a non-empty record produced by
// AppendUpdate, whether it is a tombstone or a delta; a record that is
// neither carries the entity's full state.
func PeekState(b []byte) (deleted, delta bool) {
	return b[0]&headerDeletedBit != 0, b[0]&headerDeltaBit != 0
}

// DecodeUpdate decodes a record produced by AppendUpdate; bytes after the
// record are ignored.
func (c *Codec) DecodeUpdate(b []byte) (model.Update, error) {
	u, _, err := c.decodeNext(b)
	return u, err
}

// decodeNext decodes the record at the front of b and returns the bytes after
// it: the format delimits itself, so records concatenate with no length
// prefix (a block, batch.go).
func (c *Codec) decodeNext(b []byte) (model.Update, []byte, error) {
	var u model.Update
	if len(b) < 1 {
		return u, nil, fmt.Errorf("enc: empty update record")
	}
	h := b[0]
	b = b[1:]
	ts, w := binary.Uvarint(b)
	if w <= 0 {
		return u, nil, fmt.Errorf("enc: bad ts")
	}
	b = b[w:]
	u.TS = model.Timestamp(ts)

	typ := EntityType(h & headerTypeMask)
	deleted := h&headerDeletedBit != 0
	delta := h&headerDeltaBit != 0

	readID := func() (int64, error) {
		v, w := binary.Uvarint(b)
		if w <= 0 {
			return 0, fmt.Errorf("enc: bad id")
		}
		b = b[w:]
		return int64(v), nil
	}

	switch typ {
	case TypeNode:
		id, err := readID()
		if err != nil {
			return u, nil, err
		}
		u.NodeID = model.NodeID(id)
		switch {
		case deleted:
			u.Kind = model.OpDeleteNode
			return u, b, nil
		case delta:
			u.Kind = model.OpUpdateNode
		default:
			u.Kind = model.OpAddNode
		}
		if u.AddLabels, u.DelLabels, b, err = c.readLabels(b); err != nil {
			return u, nil, err
		}
		u.SetProps, u.DelProps, b, err = c.readProps(b)
		return u, b, err
	case TypeRel:
		id, err := readID()
		if err != nil {
			return u, nil, err
		}
		u.RelID = model.RelID(id)
		src, err := readID()
		if err != nil {
			return u, nil, err
		}
		tgt, err := readID()
		if err != nil {
			return u, nil, err
		}
		u.Src, u.Tgt = model.NodeID(src), model.NodeID(tgt)
		switch {
		case deleted:
			u.Kind = model.OpDeleteRel
			return u, b, nil
		case delta:
			u.Kind = model.OpUpdateRel
		default:
			u.Kind = model.OpAddRel
			ref, _, rest, err := readRef(b)
			if err != nil {
				return u, nil, err
			}
			b = rest
			if u.RelLabel, err = c.Strings.Lookup(ref); err != nil {
				return u, nil, err
			}
		}
		u.SetProps, u.DelProps, b, err = c.readProps(b)
		return u, b, err
	}
	return u, nil, fmt.Errorf("enc: unknown entity type %d", typ)
}
