package pool

import (
	"math/rand"
	"testing"
)

func TestBytesReuse(t *testing.T) {
	p := NewBytes(64)
	s := p.Get()
	*s = append(*s, []byte("hello")...)
	p.Put(s)
	s2 := p.Get()
	if len(*s2) != 0 {
		t.Error("recycled slice must be empty")
	}
	if cap(*s2) < 5 {
		t.Error("capacity should be retained")
	}
}

func TestRingFIFO(t *testing.T) {
	r := NewRing(4)
	for i := int64(0); i < 10; i++ {
		r.Push(i)
	}
	if r.Len() != 10 {
		t.Fatalf("len = %d", r.Len())
	}
	for i := int64(0); i < 10; i++ {
		v, ok := r.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d = %d %v", i, v, ok)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Error("empty pop must fail")
	}
}

func TestRingWrapAround(t *testing.T) {
	r := NewRing(4)
	// Interleave pushes and pops to force wrap-around.
	for round := 0; round < 50; round++ {
		r.Push(int64(round * 2))
		r.Push(int64(round*2 + 1))
		if v, _ := r.Pop(); v != int64(round*2) {
			t.Fatalf("round %d: wrong order", round)
		}
		if v, _ := r.Pop(); v != int64(round*2+1) {
			t.Fatalf("round %d: wrong order", round)
		}
	}
	r.Reset()
	if r.Len() != 0 {
		t.Error("reset")
	}
}

func TestRingMatchesSliceQueue(t *testing.T) {
	// Property: the ring behaves exactly like a slice-based FIFO under a
	// random operation sequence.
	rng := rand.New(rand.NewSource(2))
	r := NewRing(2)
	var ref []int64
	for step := 0; step < 10000; step++ {
		if rng.Intn(2) == 0 || len(ref) == 0 {
			v := rng.Int63()
			r.Push(v)
			ref = append(ref, v)
		} else {
			v, ok := r.Pop()
			if !ok || v != ref[0] {
				t.Fatalf("step %d: pop %d %v, want %d", step, v, ok, ref[0])
			}
			ref = ref[1:]
		}
		if r.Len() != len(ref) {
			t.Fatalf("len mismatch: %d vs %d", r.Len(), len(ref))
		}
	}
}

// Len returns the number of queued elements.
func (r *Ring) Len() int { return r.size }

// Reset empties the ring, keeping its capacity.
func (r *Ring) Reset() { r.head, r.tail, r.size = 0, 0, 0 }
