package aion_test

import (
	"expvar"
	"go/types"
	"reflect"
	"sort"
	"strings"
	"testing"

	"aion/internal/bolt"
	"aion/internal/cypher"
	"aion/internal/replica"
	"aion/internal/system"
)

// statsAllowed names the stats structs the registry need not reach, each with
// the reason. An entry the registry does reach fails the test.
var statsAllowed = map[string]string{
	"aion/internal/aion.GraphStats": "the planner's Sec 5.1 estimator, not a snapshot: its counters reach the registry through the planner entry",
}

// TestEveryStatsIsRegistered forbids free-standing stats structs: the named
// struct result of every production method called Stats or Metrics must be
// reached by walking the values of a built system's metrics registry, nested
// structs included. It builds a primary and a follower, each with an engine,
// a server and a Source (and the follower an Applier), as aion-server does.
func TestEveryStatsIsRegistered(t *testing.T) {
	if len(statsAllowed) > 1 {
		t.Fatalf("statsAllowed holds %d entries, at most 1", len(statsAllowed))
	}
	declared := map[string]bool{}
	for _, p := range reachLoad(t).Loaded() {
		if !production(p.ImportPath) || strings.Contains(p.ImportPath, "/testdata/") {
			continue
		}
		for _, name := range p.Pkg.Scope().Names() {
			tn, ok := p.Pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			mset := types.NewMethodSet(types.NewPointer(tn.Type()))
			for i := range mset.Len() {
				sig := mset.At(i).Obj().Type().(*types.Signature)
				if n := mset.At(i).Obj().Name(); (n != "Stats" && n != "Metrics") || sig.Results().Len() != 1 {
					continue
				}
				res := sig.Results().At(0).Type()
				if ptr, ok := res.(*types.Pointer); ok {
					res = ptr.Elem()
				}
				if named, ok := res.(*types.Named); ok {
					if _, ok := named.Underlying().(*types.Struct); ok {
						declared[named.Obj().Pkg().Path()+"."+named.Obj().Name()] = true
					}
				}
			}
		}
	}
	if len(declared) < 8 {
		t.Fatalf("found %d stats structs, fewer than the 8 production declares: %v", len(declared), declared)
	}

	reached := map[string]bool{}
	for _, replicaOf := range []bool{false, true} {
		sys, err := system.Open(system.Options{Dir: t.TempDir(), Replica: replicaOf})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		opts := bolt.Options{ReplicationHandler: replica.NewSource(sys).ServeConn}
		if replicaOf {
			opts.ReadGate = replica.NewApplier(sys).Gate
		}
		defer bolt.NewServer(cypher.NewEngine(sys), opts).Close()
		sys.Metrics.Do(func(kv expvar.KeyValue) {
			var v any = kv.Value
			if f, ok := v.(expvar.Func); ok {
				v = f.Value()
			}
			reachStructs(reflect.ValueOf(v), reached)
		})
	}
	var names []string
	for name := range declared {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		_, allowed := statsAllowed[name]
		switch {
		case !reached[name] && !allowed:
			t.Errorf("%s is a Stats or Metrics result that no entry of System.Metrics reaches: add it where its component is built", name)
		case reached[name] && allowed:
			t.Errorf("%s is allow-listed but the registry reaches it: drop its statsAllowed entry", name)
		}
	}
	for name := range statsAllowed {
		if !declared[name] {
			t.Errorf("statsAllowed names %s, which no Stats or Metrics method returns", name)
		}
	}
}

// reachStructs adds to reached the named struct types of v and of every value
// inside it: fields, elements, map values, pointees and interface contents.
func reachStructs(v reflect.Value, reached map[string]bool) {
	switch v.Kind() {
	case reflect.Interface, reflect.Pointer:
		if !v.IsNil() {
			reachStructs(v.Elem(), reached)
		}
	case reflect.Struct:
		reached[v.Type().PkgPath()+"."+v.Type().Name()] = true
		for i := range v.NumField() {
			reachStructs(v.Field(i), reached)
		}
	case reflect.Array, reflect.Slice:
		for i := range v.Len() {
			reachStructs(v.Index(i), reached)
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			reachStructs(it.Value(), reached)
		}
	}
}
