package lineagestore_test

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"aion/internal/aion"
	"aion/internal/btree"
	"aion/internal/enc"
	"aion/internal/model"
	"aion/internal/pagecache"
	"aion/internal/strstore"
	"aion/internal/vfs"
)

// fixedWidth is the key encoding of the trees an ALC1 checkpoint vouches for:
// every component a big-endian uint64.
func fixedWidth(parts ...uint64) []byte {
	var b []byte
	for _, p := range parts {
		b = binary.BigEndian.AppendUint64(b, p)
	}
	return b
}

// components decodes a compact key into its components: each one length
// byte n, then n big-endian bytes.
func components(t *testing.T, k []byte) []uint64 {
	t.Helper()
	var out []uint64
	for len(k) > 0 {
		n := int(k[0])
		if n > 8 || len(k) < 1+n {
			t.Fatalf("not a compact key: %x", k)
		}
		var v uint64
		for _, c := range k[1 : 1+n] {
			v = v<<8 | uint64(c)
		}
		out, k = append(out, v), k[1+n:]
	}
	return out
}

// openTree opens the tree file at path, creating it when it is missing.
func openTree(t *testing.T, path string) (*pagecache.Cache, *btree.Tree) {
	t.Helper()
	pc, err := pagecache.Open(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := btree.Open(pc)
	if err != nil {
		t.Fatal(err)
	}
	return pc, tr
}

// closeTree flushes and closes a tree openTree opened.
func closeTree(t *testing.T, pc *pagecache.Cache, tr *btree.Tree) {
	t.Helper()
	if err := errors.Join(tr.Flush(), pc.Close()); err != nil {
		t.Fatal(err)
	}
}

// rewriteTree replaces the tree file at path with one holding each entry
// (k, v) as the entry conv returns for it.
func rewriteTree(t *testing.T, path string, conv func(k, v []byte) ([]byte, []byte)) {
	t.Helper()
	oldPC, old := openTree(t, path)
	newPC, out := openTree(t, path+".parent")
	var perr error
	var n, m int
	err := old.Scan(nil, nil, func(k, v []byte) bool {
		n++
		perr = out.Put(conv(k, v))
		return perr == nil
	})
	if err == nil && perr == nil {
		err = out.Scan(nil, nil, func(k, v []byte) bool { m++; return true })
	}
	if err != nil || perr != nil || m != n || n == 0 {
		t.Fatalf("rewriting %s: %v, %v, %d of %d entries", path, err, perr, m, n)
	}
	closeTree(t, newPC, out)
	closeTree(t, oldPC, old)
	if err := os.Rename(path+".parent", path); err != nil {
		t.Fatal(err)
	}
}

// currentTrees are the tree files of this format.
var currentTrees = []string{"nodes.idx", "outrels.idx", "in.idx"}

// rewriteAsParent replaces every tree file under lineage with one holding the
// same entries under the ALC1 encoding: fixed-width keys.
func rewriteAsParent(t *testing.T, lineage string) {
	t.Helper()
	for _, name := range currentTrees {
		rewriteTree(t, filepath.Join(lineage, name), func(k, v []byte) ([]byte, []byte) {
			return fixedWidth(components(t, k)...), v
		})
	}
}

// rewriteWithFixedRefs replaces the version trees under lineage with ones
// holding the same entries under the ALC3 encoding: each record's string refs
// 4 bytes wide, resolved against the store's string table (the other trees
// hold none).
func rewriteWithFixedRefs(t *testing.T, lineage string) {
	t.Helper()
	strs, err := strstore.OpenFS(vfs.OS, filepath.Join(lineage, "..", "strings.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer strs.Close()
	compact, fixed := enc.NewCodec(strs), enc.NewFixedRefCodec(strs)
	for _, name := range []string{"nodes.idx", "outrels.idx"} {
		grew := false
		rewriteTree(t, filepath.Join(lineage, name), func(k, v []byte) ([]byte, []byte) {
			c := components(t, k)
			src, id, ts := uint64(0), c[0], c[len(c)-1]
			if len(c) == 3 {
				src, id = c[0], c[1]
			}
			u, err := compact.DecodeVersion(v[1:], model.NodeID(src), int64(id), model.Timestamp(ts))
			if err != nil {
				t.Fatalf("%s holds %x → %x (%v)", name, k, v, err)
			}
			w, err := fixed.AppendVersion(v[:1:1], u) // the chain position, then the record
			if err != nil {
				t.Fatal(err)
			}
			grew = grew || len(w) > len(v)
			return k, w
		})
		if !grew {
			t.Fatalf("%s holds no record with a string ref", name)
		}
	}
}

// rewriteAsUnclustered replaces the trees under lineage with the ALC4 layout,
// which kept relationship versions by id: rels.idx (rel, ts) -> [chainPos]
// [header][src][tgt]..., out.idx and in.idx (node, neighbour, ts, rel) ->
// [deleted], and no outrels.idx.
func rewriteAsUnclustered(t *testing.T, lineage string) {
	t.Helper()
	relsPC, rels := openTree(t, filepath.Join(lineage, "rels.idx.parent"))
	outPC, out := openTree(t, filepath.Join(lineage, "out.idx"))
	inPC, in := openTree(t, filepath.Join(lineage, "in.idx.parent"))
	put := func(tr *btree.Tree, k, v []byte) {
		if err := tr.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	vpc, versions := openTree(t, filepath.Join(lineage, "outrels.idx"))
	err := versions.Scan(nil, nil, func(k, v []byte) bool {
		src, rel, ts, ok := enc.ParseKeyIncident(k)
		tgt, w := binary.Uvarint(v[2:])
		if !ok || w <= 0 {
			t.Fatalf("outrels.idx holds %x → %x", k, v)
		}
		deleted, _ := enc.PeekState(v[1:])
		put(rels, enc.KeyRel(rel, ts), append(binary.AppendUvarint(append([]byte(nil), v[:2]...), uint64(src)), v[2:]...))
		flag := []byte{0}
		if deleted {
			flag[0] = 1
		}
		put(out, compact(uint64(src), tgt, uint64(ts), uint64(rel)), flag)
		put(in, compact(tgt, uint64(src), uint64(ts), uint64(rel)), flag)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	closeTree(t, vpc, versions)
	closeTree(t, relsPC, rels)
	closeTree(t, outPC, out)
	closeTree(t, inPC, in)
	for _, name := range []string{"rels.idx", "in.idx"} {
		if err := os.Rename(filepath.Join(lineage, name+".parent"), filepath.Join(lineage, name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(filepath.Join(lineage, "outrels.idx")); err != nil {
		t.Fatal(err)
	}
}

// withRelSources adds the ALC5 layout's fourth tree to the trees under
// lineage: rels.idx (rel, insertion ts) -> src, a uvarint, read from in.idx.
func withRelSources(t *testing.T, lineage string) {
	t.Helper()
	relsPC, rels := openTree(t, filepath.Join(lineage, "rels.idx"))
	inPC, in := openTree(t, filepath.Join(lineage, "in.idx"))
	var perr error
	err := in.Scan(nil, nil, func(k, v []byte) bool {
		_, rel, ts, kok := enc.ParseKeyIncident(k)
		deleted, src, vok := enc.ParseIncomingValue(v)
		if !kok || !vok {
			t.Fatalf("in.idx holds %x → %x", k, v)
		}
		if !deleted {
			perr = rels.Put(enc.KeyRel(rel, ts), binary.AppendUvarint(nil, uint64(src)))
		}
		return perr == nil
	})
	if err = errors.Join(err, perr); err != nil {
		t.Fatal(err)
	}
	closeTree(t, inPC, in)
	closeTree(t, relsPC, rels)
}

// compact is the key encoding since ALC2: each component a length byte and
// its significant big-endian bytes.
func compact(parts ...uint64) []byte {
	var b []byte
	for _, p := range parts {
		n := 0
		for x := p; x != 0; x >>= 8 {
			n++
		}
		b = append(b, byte(n))
		for s := 8 * (n - 1); s >= 0; s -= 8 {
			b = append(b, byte(p>>s))
		}
	}
	return b
}

// withCheckpointMagic rewrites the checkpoint of the store at lineage to carry
// magic, with a CRC that matches.
func withCheckpointMagic(t *testing.T, lineage, magic string) {
	t.Helper()
	cp, err := os.ReadFile(filepath.Join(lineage, "checkpoint"))
	if err != nil || len(cp) != 32 || string(cp[:4]) != "ALC6" {
		t.Fatalf("checkpoint %q, %v", cp, err)
	}
	copy(cp, magic)
	binary.BigEndian.PutUint32(cp[28:], crc32.ChecksumIEEE(cp[:28]))
	if err := os.WriteFile(filepath.Join(lineage, "checkpoint"), cp, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestParentFormatIsRebuilt: a cleanly closed store of an older format needs
// no migration. ALC1 is the commit before the compact keys: fixed-width trees
// under an ALC1 checkpoint. ALC2 is the commit before uvarint cell lengths and
// version records without their key: every tree's meta says AIONBTR3. ALC3 is
// the commit before compact refs: version records whose refs are 4 bytes wide.
// ALC4 is the commit before relationship versions were clustered under their
// source: rels.idx holds them by id, out.idx is the out-neighbour tree. ALC5
// is the commit before the in-memory source index: rels.idx maps each
// insertion to its source. Open accepts none of these checkpoints, finds
// trees that hold data without one (ALC1, ALC3, ALC4, ALC5) or cannot open
// them (ALC2), and rebuilds them from the TimeStore log, once, deleting the
// retired out.idx and rels.idx; the store then answers exactly like one that
// never held the old format.
func TestParentFormatIsRebuilt(t *testing.T) {
	ctx := context.Background()
	var us []model.Update
	ts := model.Timestamp(1)
	for i := 0; i < 300; i++ { // enough for the trees to be more than a leaf
		us = append(us, model.AddNode(ts, model.NodeID(i), []string{"Person"}, model.Properties{"n": model.IntValue(int64(i))}))
		ts++
	}
	for i := 0; i < 600; i++ {
		us = append(us, model.AddRel(ts, model.RelID(i), model.NodeID(i%300), model.NodeID((7*i+1)%300), "KNOWS", nil))
		ts++
	}
	for i := 0; i < 300; i += 3 {
		us = append(us, model.UpdateNode(ts, model.NodeID(i), []string{"VIP"}, nil, model.Properties{"n": model.IntValue(-1)}, nil))
		us = append(us, model.DeleteRel(ts+1, model.RelID(i), model.NodeID(i%300), model.NodeID((7*i+1)%300)))
		ts += 2
	}
	load := func(dir string) {
		db, err := aion.Open(aion.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.ApplyBatch(us); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, parent := range []struct {
		magic   string
		rewrite func(t *testing.T, lineage string)
	}{
		{"ALC1", rewriteAsParent},
		{"ALC2", func(t *testing.T, lineage string) {
			for _, name := range currentTrees {
				f, err := os.OpenFile(filepath.Join(lineage, name), os.O_WRONLY, 0)
				if err == nil {
					_, err = f.WriteAt([]byte("AIONBTR3"), 0) // the meta page's magic
					err = errors.Join(err, f.Close())
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"ALC3", rewriteWithFixedRefs},
		{"ALC4", rewriteAsUnclustered},
		{"ALC5", withRelSources},
	} {
		t.Run(parent.magic, func(t *testing.T) {
			old, fresh := t.TempDir(), t.TempDir()
			load(old)
			load(fresh)
			lineage := filepath.Join(old, "lineage")
			parent.rewrite(t, lineage)
			withCheckpointMagic(t, lineage, parent.magic)

			reopen := func(dir string, caughtUp uint64) *aion.DB {
				db, err := aion.Open(aion.Options{Dir: dir})
				if err != nil {
					t.Fatal(err)
				}
				if st := db.LineageStore().Stats(); st.CaughtUp != caughtUp || st.Updates != uint64(len(us)) {
					db.Close()
					t.Fatalf("%s reopened with %+v, want %d of %d updates caught up", dir, st, caughtUp, len(us))
				}
				return db
			}
			if err := reopen(old, uint64(len(us))).Close(); err != nil { // the one rebuild
				t.Fatal(err)
			}
			for _, name := range []string{"out.idx", "rels.idx"} {
				if _, err := os.Stat(filepath.Join(lineage, name)); !os.IsNotExist(err) {
					t.Fatalf("the rebuild left the retired %s (%v)", name, err)
				}
			}
			gdb, wdb := reopen(old, 0), reopen(fresh, 0)
			t.Cleanup(func() { gdb.Close(); wdb.Close() })
			got, want := gdb.LineageStore(), wdb.LineageStore()
			if got.DiskBytes() != want.DiskBytes() {
				t.Errorf("rebuilt trees take %d bytes, fresh ones %d", got.DiskBytes(), want.DiskBytes())
			}
			for _, at := range [][2]model.Timestamp{{250, 250}, {ts, ts}, {0, ts}, {600, 1000}} {
				for id := 0; id < 300; id += 7 {
					gn, gerr := got.GetNodeContext(ctx, model.NodeID(id), at[0], at[1])
					wn, werr := want.GetNodeContext(ctx, model.NodeID(id), at[0], at[1])
					if gerr != nil || werr != nil || !reflect.DeepEqual(gn, wn) {
						t.Fatalf("GetNode(%d, %v) = %v, %v; a fresh store says %v, %v", id, at, gn, gerr, wn, werr)
					}
					for _, d := range []model.Direction{model.Outgoing, model.Incoming, model.Both} {
						gr, gerr := got.GetRelationshipsContext(ctx, model.NodeID(id), d, at[0], at[1])
						wr, werr := want.GetRelationshipsContext(ctx, model.NodeID(id), d, at[0], at[1])
						if gerr != nil || werr != nil || !reflect.DeepEqual(gr, wr) {
							t.Fatalf("GetRelationships(%d, %v, %v) = %v, %v; a fresh store says %v, %v", id, d, at, gr, gerr, wr, werr)
						}
						if d == model.Both && at[0] == 0 && len(wr) == 0 {
							t.Fatalf("node %d has no relationship history: the comparison is vacuous", id)
						}
					}
				}
			}
		})
	}
}
