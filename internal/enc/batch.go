package enc

import (
	"encoding/binary"
	"fmt"
	"slices"

	"aion/internal/model"
)

// DecodeUpdates decodes a batch of update records produced by AppendUpdate,
// appending the results to dst. On error the updates decoded so far are
// returned alongside it.
func (c *Codec) DecodeUpdates(dst []model.Update, payloads [][]byte) ([]model.Update, error) {
	dst = slices.Grow(dst, len(payloads))
	for _, p := range payloads {
		u, err := c.DecodeUpdate(p)
		if err != nil {
			return dst, err
		}
		dst = append(dst, u)
	}
	return dst, nil
}

// Block format — the TimeStore's unit of framing, the payload of a log frame
// and of each record frame of a chain element alike:
//
//	count uvarint | count × record
//
// The records follow each other with no length prefix: the AppendUpdate
// format delimits itself. A block is never empty.

// minRecordLen is the shortest record there is, a node tombstone: header, ts
// and id, a byte each. A block of n records holds at least 3n bytes after its
// count.
const minRecordLen = 3

// AppendBlock encodes us as one block onto buf and returns the extended slice.
func (c *Codec) AppendBlock(buf []byte, us []model.Update) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(us)))
	for _, u := range us {
		var err error
		if buf, err = c.AppendUpdate(buf, u); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// BlockCount returns the number of records block b declares and the records
// themselves, decoding none. A count the bytes cannot hold is an error, so a
// caller may size a buffer by it.
func BlockCount(b []byte) (int, []byte, error) {
	n, w := binary.Uvarint(b)
	if w <= 0 || n == 0 || n > uint64(len(b)-w)/minRecordLen {
		return 0, nil, fmt.Errorf("enc: bad block count")
	}
	return int(n), b[w:], nil
}

// PeekBlock returns a block's record count and its first record's timestamp
// without decoding: what recovery needs to number the records of a log frame,
// which all share that timestamp.
func PeekBlock(b []byte) (int, model.Timestamp, error) {
	n, recs, err := BlockCount(b)
	if err != nil {
		return 0, 0, err
	}
	ts, err := PeekTS(recs)
	return n, ts, err
}

// DecodeBlock decodes block b, appending its records to dst. A count the
// records do not match — fewer whole records than it declares, or bytes after
// the last — is an error; the updates decoded so far are returned with it.
func (c *Codec) DecodeBlock(dst []model.Update, b []byte) ([]model.Update, error) {
	n, rest, err := BlockCount(b)
	if err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		var u model.Update
		if u, rest, err = c.decodeNext(rest); err != nil {
			return dst, err
		}
		dst = append(dst, u)
	}
	if len(rest) != 0 {
		return dst, fmt.Errorf("enc: %d bytes after the %d records of a block", len(rest), n)
	}
	return dst, nil
}
