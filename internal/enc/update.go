package enc

import (
	"encoding/binary"
	"fmt"

	"aion/internal/model"
)

// Update record wire format (the TimeStore log, .dsnap elements, shipments):
//
//	header(1) | ts uvarint | id uvarint | body
//
// and the LineageStore's version value, whose key holds the id and ts — and,
// for a relationship, its source:
//
//	header(1) | body
//
// A relationship's body starts with src and tgt (uvarints; a version value
// holds tgt alone); then, unless the record is a tombstone, come a node's
// labels or an inserted relationship's label ref, and the props. The header
// packs the entity type and the deleted/delta state per Fig 3.

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
	id := uint64(u.RelID)
	if u.Kind.IsNodeOp() {
		id = uint64(u.NodeID)
	}
	buf = binary.AppendUvarint(binary.AppendUvarint(append(buf, headerFor(u)), uint64(u.TS)), id)
	return c.appendBody(buf, u, true)
}

// AppendVersion encodes u as a LineageStore version value: AppendUpdate's
// record without the timestamp, the entity id and the relationship source its
// key holds.
func (c *Codec) AppendVersion(buf []byte, u model.Update) ([]byte, error) {
	return c.appendBody(append(buf, headerFor(u)), u, false)
}

// appendBody encodes what follows the header, ts and id of u's record; a
// relationship's src only withSrc.
func (c *Codec) appendBody(buf []byte, u model.Update, withSrc bool) ([]byte, error) {
	if !u.Kind.IsNodeOp() {
		if withSrc {
			buf = binary.AppendUvarint(buf, uint64(u.Src))
		}
		buf = binary.AppendUvarint(buf, uint64(u.Tgt))
	}
	var err error
	switch u.Kind {
	case model.OpAddNode, model.OpUpdateNode:
		if buf, err = c.appendLabels(buf, u.AddLabels, u.DelLabels); err != nil {
			return nil, err
		}
	case model.OpAddRel:
		r, err := c.Strings.Intern(u.RelLabel)
		if err != nil {
			return nil, err
		}
		buf = c.appendRef(buf, r, 0)
	case model.OpDeleteNode, model.OpDeleteRel:
		return buf, nil
	case model.OpUpdateRel:
	default:
		return nil, fmt.Errorf("enc: unknown op kind %v", u.Kind)
	}
	return c.appendProps(buf, u.SetProps, u.DelProps)
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
// AppendUpdate or AppendVersion, whether it is a tombstone or a delta; a
// record that is neither carries the entity's full state.
func PeekState(b []byte) (deleted, delta bool) {
	return b[0]&headerDeletedBit != 0, b[0]&headerDeltaBit != 0
}

// DecodeUpdate decodes a record produced by AppendUpdate; bytes after the
// record are ignored.
func (c *Codec) DecodeUpdate(b []byte) (model.Update, error) {
	u, _, err := c.decodeNext(b)
	return u, err
}

// DecodeVersion decodes a value produced by AppendVersion as entity id's
// update at ts, a relationship's with the source src its key holds (a node's
// ignores it); bytes after it are ignored.
func (c *Codec) DecodeVersion(b []byte, src model.NodeID, id int64, ts model.Timestamp) (model.Update, error) {
	if len(b) < 1 {
		return model.Update{}, fmt.Errorf("enc: empty version record")
	}
	u, _, err := c.decodeBody(b[0], b[1:], id, ts, &src)
	return u, err
}

// DecodeNodeVersion decodes a node's version value into n, whose ID the key
// holds: a full record sets n's labels and properties; a delta removes and
// adds its labels and sets and deletes its properties in n's own slice and
// map. A tombstone, which has no state, is refused.
func (c *Codec) DecodeNodeVersion(b []byte, n *model.Node) error {
	b, delta, err := versionBody(b, TypeNode)
	if err != nil {
		return err
	}
	added, removed, b, err := c.readLabels(b)
	if err != nil {
		return err
	}
	if !delta {
		n.Labels, n.Props = added[:0], nil
	}
	model.Update{AddLabels: added, DelLabels: removed}.ApplyToNode(n) // writes each label no further along than it reads it
	_, err = c.readProps(b, &n.Props, nil)
	return err
}

// DecodeRelVersion is DecodeNodeVersion for a relationship, whose ID and Src
// the key holds: a full record sets its target, type and properties; a delta
// its target and, in its own map, its property changes.
func (c *Codec) DecodeRelVersion(b []byte, r *model.Rel) error {
	b, delta, err := versionBody(b, TypeRel)
	if err != nil {
		return err
	}
	tgt, b, err := readUvarint(b, "id")
	if err != nil {
		return err
	}
	if r.Tgt = model.NodeID(tgt); !delta {
		var label model.Value
		if label, b, err = c.readString(b); err != nil {
			return err
		}
		r.Label, r.Props = label.Str(), nil
	}
	_, err = c.readProps(b, &r.Props, nil)
	return err
}

// versionBody returns the body of version value b, which must be a live
// record of type t, and whether it is a delta.
func versionBody(b []byte, t EntityType) (body []byte, delta bool, err error) {
	if len(b) == 0 {
		return nil, false, fmt.Errorf("enc: empty version record")
	}
	deleted, delta, err := checkHeader(b[0])
	if err == nil && (EntityType(b[0]&headerTypeMask) != t || deleted) {
		err = fmt.Errorf("enc: header %#x is no live record of entity type %d", b[0], t)
	}
	if err != nil {
		return nil, false, err
	}
	return b[1:], delta, nil
}

// checkHeader splits header h into its deleted and delta flags, refusing a
// header no record has.
func checkHeader(h byte) (deleted, delta bool, err error) {
	deleted, delta = h&headerDeletedBit != 0, h&headerDeltaBit != 0
	if h&^(headerTypeMask|headerDeletedBit|headerDeltaBit) != 0 || deleted && delta {
		return false, false, fmt.Errorf("enc: bad header %#x", h)
	}
	return deleted, delta, nil
}

// decodeNext decodes the record at the front of b and returns the bytes after
// it: the format delimits itself, so records concatenate with no length
// prefix (a block, batch.go).
func (c *Codec) decodeNext(b []byte) (model.Update, []byte, error) {
	if len(b) < 1 {
		return model.Update{}, nil, fmt.Errorf("enc: empty update record")
	}
	ts, rest, err := readUvarint(b[1:], "ts")
	if err != nil {
		return model.Update{}, nil, err
	}
	id, rest, err := readUvarint(rest, "id")
	if err != nil {
		return model.Update{}, nil, err
	}
	return c.decodeBody(b[0], rest, int64(id), model.Timestamp(ts), nil)
}

// readUvarint reads a minimal uvarint: each record decodes from one encoding.
func readUvarint(b []byte, what string) (uint64, []byte, error) {
	v, w := binary.Uvarint(b)
	if w <= 0 || w > 1 && b[w-1] == 0 {
		return 0, nil, fmt.Errorf("enc: bad %s", what)
	}
	return v, b[w:], nil
}

// readVarint is readUvarint for a zig-zag varint.
func readVarint(b []byte) (int64, []byte, error) {
	v, rest, err := readUvarint(b, "int")
	return int64(v>>1) ^ -int64(v&1), rest, err
}

// decodeBody decodes the body after header h as entity id's update at ts and
// returns the bytes after it. A relationship's src is *keySrc when the body
// leaves it out (a version value), read from the body when keySrc is nil.
func (c *Codec) decodeBody(h byte, b []byte, id int64, ts model.Timestamp, keySrc *model.NodeID) (model.Update, []byte, error) {
	u := model.Update{TS: ts}
	deleted, delta, err := checkHeader(h)
	if err != nil {
		return u, nil, err
	}
	switch EntityType(h & headerTypeMask) {
	case TypeNode:
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
	case TypeRel:
		u.RelID = model.RelID(id)
		var src, tgt uint64
		if keySrc != nil {
			src = uint64(*keySrc)
		} else if src, b, err = readUvarint(b, "id"); err != nil {
			return u, nil, err
		}
		if tgt, b, err = readUvarint(b, "id"); err != nil {
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
			var label model.Value
			if label, b, err = c.readString(b); err != nil {
				return u, nil, err
			}
			u.RelLabel = label.Str()
		}
	default:
		return u, nil, fmt.Errorf("enc: unknown entity type %d", h&headerTypeMask)
	}
	b, err = c.readProps(b, &u.SetProps, &u.DelProps)
	return u, b, err
}
