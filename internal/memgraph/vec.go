package memgraph

import "slices"

// chunkLen is the copy-on-write unit of every id-indexed vector: 256 entries,
// 2 KiB of entity pointers or 6 KiB of adjacency lists.
const (
	chunkBits = 8
	chunkLen  = 1 << chunkBits
)

// chunk is one copy-on-write unit of a vec. adj marks, in a vector of
// adjacency lists, the lists its vector may mutate in place: made by it since
// it last copied the chunk. A copy starts with no list marked, because every
// list in it is shared with the chunk it was copied from.
type chunk[T any] struct {
	v   [chunkLen]T
	adj [chunkLen / 64]uint64
}

func (c *chunk[T]) owns(j int) bool { return c.adj[j/64]&(1<<(j%64)) != 0 }

func (c *chunk[T]) own(j int, mine bool) {
	c.adj[j/64] &^= 1 << (j % 64)
	if mine {
		c.adj[j/64] |= 1 << (j % 64)
	}
}

// vec is an id-indexed vector (Sec 5.2) held as a directory of chunks. A copy
// of a vec value shares every chunk; a vector writes in place only to the
// chunks it made itself, and copies any other first, so two vectors that share
// a chunk never see each other's writes.
type vec[T any] struct {
	dir []dirSlot[T]
	n   int // the largest index written + 1
}

// dirSlot is one chunk of a vec, nil while nothing was written to its range,
// and whether the vec made it.
type dirSlot[T any] struct {
	c    *chunk[T]
	mine bool
}

// get returns entry i, the zero value outside the vector.
func (v *vec[T]) get(i int) (x T) {
	if k := i >> chunkBits; i >= 0 && k < len(v.dir) && v.dir[k].c != nil {
		x = v.dir[k].c.v[i&(chunkLen-1)]
	}
	return x
}

// slot returns entry i's chunk, ready to be written — the vector grown to hold
// it, the chunk made or copied unless the vector made it — and i's index in it.
func (v *vec[T]) slot(i int) (*chunk[T], int) {
	k := i >> chunkBits
	for len(v.dir) <= k {
		v.dir = append(v.dir, dirSlot[T]{})
	}
	if s := &v.dir[k]; !s.mine {
		c := new(chunk[T])
		if s.c != nil {
			c.v = s.c.v
		}
		s.c, s.mine = c, true
	}
	v.n = max(v.n, i+1)
	return v.dir[k].c, i & (chunkLen - 1)
}

// set writes entry i.
func (v *vec[T]) set(i int, x T) {
	c, j := v.slot(i)
	c.v[j] = x
}

// unshare gives v a directory of its own in which it made no chunk: what a
// vector does before its first write after its value was copied.
func (v *vec[T]) unshare() {
	v.dir = slices.Clone(v.dir)
	for k := range v.dir {
		v.dir[k].mine = false
	}
}

// each calls fn with every entry in index order until fn returns false.
func (v *vec[T]) each(fn func(x T) bool) {
	for _, s := range v.dir {
		if s.c == nil {
			continue
		}
		for _, x := range s.c.v[:] {
			if !fn(x) {
				return
			}
		}
	}
}

// adopt points v at ref's chunk wherever the two chunks hold the same entries
// by same. ref's chunks must be ones nobody writes in place any more, and v's
// directory its own.
func (v *vec[T]) adopt(ref *vec[T], same func(a, b T) bool) {
chunks:
	for k := range min(len(v.dir), len(ref.dir)) {
		a, b := v.dir[k].c, ref.dir[k].c
		if a == nil || b == nil {
			continue
		}
		for j := range a.v {
			if !same(a.v[j], b.v[j]) {
				continue chunks
			}
		}
		v.dir[k] = dirSlot[T]{c: b}
	}
}
