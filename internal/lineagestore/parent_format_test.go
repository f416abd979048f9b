package lineagestore_test

import (
	"encoding/binary"
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

// rewriteAsParent replaces the tree file at path with one holding the same
// entries under the parent commit's encoding: fixed-width keys, and for the
// neighbour trees the 9-byte value that repeats the relationship id.
func rewriteAsParent(t *testing.T, path string, neigh bool) {
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
	err := old.Scan(nil, nil, func(k, v []byte) bool {
		if neigh {
			a, b, ts, rel, ok := enc.ParseKeyNeigh4(k)
			if !ok {
				t.Fatalf("%s holds the key %x", path, k)
			}
			perr = out.Put(fixedWidth(uint64(a), uint64(b), uint64(ts), uint64(rel)), append(fixedWidth(uint64(rel)), v...))
		} else {
			id, ts, ok := enc.ParseKeyVersion(k)
			if !ok {
				t.Fatalf("%s holds the key %x", path, k)
			}
			perr = out.Put(fixedWidth(uint64(id), uint64(ts)), v)
		}
		return perr == nil
	})
	if err != nil || perr != nil || out.Len() != old.Len() || old.Len() == 0 {
		t.Fatalf("rewriting %s: %v, %v, %d of %d entries", path, err, perr, out.Len(), old.Len())
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

// TestParentFormatIsRebuilt: a cleanly closed store of the commit before the
// compact keys — fixed-width trees under an ALC1 checkpoint — needs no
// migration. Open does not accept the checkpoint, finds trees that hold data
// without one, and rebuilds them from the TimeStore log; the store then
// answers exactly like one that never held the old format.
func TestParentFormatIsRebuilt(t *testing.T) {
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
	old, fresh := t.TempDir(), t.TempDir()
	load(old)
	load(fresh)

	lineage := filepath.Join(old, "lineage")
	for _, f := range []struct {
		name  string
		neigh bool
	}{{"nodes.idx", false}, {"rels.idx", false}, {"out.idx", true}, {"in.idx", true}} {
		rewriteAsParent(t, filepath.Join(lineage, f.name), f.neigh)
	}
	cp, err := os.ReadFile(filepath.Join(lineage, "checkpoint"))
	if err != nil || len(cp) != 32 || string(cp[:4]) != "ALC2" {
		t.Fatalf("checkpoint %q, %v", cp, err)
	}
	copy(cp, "ALC1")
	binary.BigEndian.PutUint32(cp[28:], crc32.ChecksumIEEE(cp[:28]))
	if err := os.WriteFile(filepath.Join(lineage, "checkpoint"), cp, 0o644); err != nil {
		t.Fatal(err)
	}

	reopen := func(dir string, caughtUp uint64) *aion.DB {
		db, err := aion.Open(aion.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		if st := db.LineageStore().Stats(); st.CaughtUp != caughtUp || st.Updates != uint64(len(us)) {
			t.Fatalf("%s reopened with %+v, want %d of %d updates caught up", dir, st, caughtUp, len(us))
		}
		return db
	}
	got, want := reopen(old, uint64(len(us))).LineageStore(), reopen(fresh, 0).LineageStore()
	if got.DiskBytes() != want.DiskBytes()-32 { // the rebuilt store has no checkpoint until its Close
		t.Errorf("rebuilt trees take %d bytes, fresh ones %d", got.DiskBytes(), want.DiskBytes()-32)
	}
	for _, at := range [][2]model.Timestamp{{250, 250}, {ts, ts}, {0, ts}, {600, 1000}} {
		for id := 0; id < 300; id += 7 {
			gn, gerr := got.GetNode(model.NodeID(id), at[0], at[1])
			wn, werr := want.GetNode(model.NodeID(id), at[0], at[1])
			if gerr != nil || werr != nil || !reflect.DeepEqual(gn, wn) {
				t.Fatalf("GetNode(%d, %v) = %v, %v; a fresh store says %v, %v", id, at, gn, gerr, wn, werr)
			}
			for _, d := range []model.Direction{model.Outgoing, model.Incoming, model.Both} {
				gr, gerr := got.GetRelationships(model.NodeID(id), d, at[0], at[1])
				wr, werr := want.GetRelationships(model.NodeID(id), d, at[0], at[1])
				if gerr != nil || werr != nil || !reflect.DeepEqual(gr, wr) {
					t.Fatalf("GetRelationships(%d, %v, %v) = %v, %v; a fresh store says %v, %v", id, d, at, gr, gerr, wr, werr)
				}
				if d == model.Both && at[0] == 0 && len(wr) == 0 {
					t.Fatalf("node %d has no relationship history: the comparison is vacuous", id)
				}
			}
		}
	}
}
