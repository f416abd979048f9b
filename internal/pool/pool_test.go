package pool

import "testing"

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
