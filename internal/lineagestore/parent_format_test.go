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

// rewriteTree replaces the tree file at path with one holding each entry
// (k, v) as the entry conv returns for it.
func rewriteTree(t *testing.T, path string, conv func(k, v []byte) ([]byte, []byte)) {
	t.Helper()
	open := func(p string) (*pagecache.Cache, *btree.Tree) {
		pc, err := pagecache.Open(p, 64)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := btree.Open(pc)
		if err != nil {
			t.Fatal(err)
		}
		return pc, tr
	}
	oldPC, old := open(path)
	newPC, out := open(path + ".parent")
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
	if err := out.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := newPC.Close(); err != nil {
		t.Fatal(err)
	}
	if err := oldPC.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(path+".parent", path); err != nil {
		t.Fatal(err)
	}
}

// rewriteAsParent replaces the tree file at path with one holding the same
// entries under the ALC1 encoding: fixed-width keys, and for the neighbour
// trees the 9-byte value that repeats the relationship id.
func rewriteAsParent(t *testing.T, path string, neigh bool) {
	t.Helper()
	rewriteTree(t, path, func(k, v []byte) ([]byte, []byte) {
		if neigh {
			a, b, ts, rel, ok := enc.ParseKeyNeigh4(k)
			if !ok {
				t.Fatalf("%s holds the key %x", path, k)
			}
			return fixedWidth(uint64(a), uint64(b), uint64(ts), uint64(rel)), append(fixedWidth(uint64(rel)), v...)
		}
		id, ts, ok := enc.ParseKeyVersion(k)
		if !ok {
			t.Fatalf("%s holds the key %x", path, k)
		}
		return fixedWidth(uint64(id), uint64(ts)), v
	})
}

// rewriteWithFixedRefs replaces a version tree's file at path with one holding
// the same entries under the ALC3 encoding: each record's string refs 4 bytes
// wide, resolved against the store's string table (the neighbour trees hold
// none).
func rewriteWithFixedRefs(t *testing.T, path string, neigh bool) {
	t.Helper()
	if neigh {
		return
	}
	strs, err := strstore.OpenFS(vfs.OS, filepath.Join(filepath.Dir(path), "..", "strings.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer strs.Close()
	compact, fixed := enc.NewCodec(strs), enc.NewFixedRefCodec(strs)
	grew := false
	rewriteTree(t, path, func(k, v []byte) ([]byte, []byte) {
		id, ts, ok := enc.ParseKeyVersion(k)
		u, err := compact.DecodeVersion(v[1:], id, ts)
		if !ok || err != nil {
			t.Fatalf("%s holds %x → %x (%v)", path, k, v, err)
		}
		w, err := fixed.AppendVersion(v[:1:1], u) // the chain position, then the record
		if err != nil {
			t.Fatal(err)
		}
		grew = grew || len(w) > len(v)
		return k, w
	})
	if !grew {
		t.Fatalf("%s holds no record with a string ref", path)
	}
}

// withCheckpointMagic rewrites the checkpoint of the store at lineage to carry
// magic, with a CRC that matches.
func withCheckpointMagic(t *testing.T, lineage, magic string) {
	t.Helper()
	cp, err := os.ReadFile(filepath.Join(lineage, "checkpoint"))
	if err != nil || len(cp) != 32 || string(cp[:4]) != "ALC4" {
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
// Open accepts none of these checkpoints, finds trees that hold data without
// one (ALC1, ALC3) or cannot open them (ALC2), and rebuilds them from the
// TimeStore log, once; the store then answers exactly like one that never held
// the old format.
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
	trees := []struct {
		name  string
		neigh bool
	}{{"nodes.idx", false}, {"rels.idx", false}, {"out.idx", true}, {"in.idx", true}}
	for _, parent := range []struct {
		magic   string
		rewrite func(t *testing.T, path string, neigh bool)
	}{
		{"ALC1", rewriteAsParent},
		{"ALC2", func(t *testing.T, path string, _ bool) {
			f, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err == nil {
				_, err = f.WriteAt([]byte("AIONBTR3"), 0) // the meta page's magic
				err = errors.Join(err, f.Close())
			}
			if err != nil {
				t.Fatal(err)
			}
		}},
		{"ALC3", rewriteWithFixedRefs},
	} {
		t.Run(parent.magic, func(t *testing.T) {
			old, fresh := t.TempDir(), t.TempDir()
			load(old)
			load(fresh)
			lineage := filepath.Join(old, "lineage")
			for _, f := range trees {
				parent.rewrite(t, filepath.Join(lineage, f.name), f.neigh)
			}
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
