// Package memshare counts the records two memgraph graphs share, for the
// sharing tests of the packages that build graphs. It is test support: no
// binary imports it.
package memshare

import (
	"reflect"

	"aion/internal/memgraph"
)

// Records counts the live nodes and relationships whose record g holds as ref
// does, the very same one: what ApplyShared and ShareChunks leave shared. The
// records are memgraph's own, so their pointers are read by reflection.
func Records(g, ref *memgraph.Graph) (nodes, rels int) {
	a, b := reflect.ValueOf(g).Elem(), reflect.ValueOf(ref).Elem()
	return same(a.FieldByName("nodes"), b.FieldByName("nodes")), same(a.FieldByName("rels"), b.FieldByName("rels"))
}

// same counts the indexes at which the vectors a and b hold one record.
func same(a, b reflect.Value) (n int) {
	ad, bd := a.FieldByName("dir"), b.FieldByName("dir")
	for k := range min(ad.Len(), bd.Len()) {
		ac, bc := ad.Index(k).FieldByName("c"), bd.Index(k).FieldByName("c")
		for j := 0; !ac.IsNil() && !bc.IsNil() && j < ac.Elem().FieldByName("v").Len(); j++ {
			if p := ac.Elem().FieldByName("v").Index(j).Pointer(); p != 0 && p == bc.Elem().FieldByName("v").Index(j).Pointer() {
				n++
			}
		}
	}
	return n
}
