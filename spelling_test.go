package aion_test

import (
	"reflect"
	"strings"
	"testing"

	"aion/internal/aion"
	"aion/internal/cypher"
	"aion/internal/lineagestore"
	"aion/internal/timestore"
)

// TestOneSpellingPerRead fails when a read door has two spellings: an
// exported method M beside an MContext sibling, the first being only the
// second with context.Background(). Every read takes a ctx, so the
// Background twin is a second, uncancellable way into the same read.
//
// The one exception is timestore's GetDiff: the frozen benchmark calls it
// (benchmark/scratch.go), and it goes with the next change to that
// benchmark.
func TestOneSpellingPerRead(t *testing.T) {
	allowed := map[string]bool{"*timestore.Store.GetDiff": true}
	for _, v := range []any{(*aion.DB)(nil), (*timestore.Store)(nil), (*lineagestore.Store)(nil), (*cypher.Engine)(nil)} {
		typ := reflect.TypeOf(v)
		var twins []string
		for i := 0; i < typ.NumMethod(); i++ {
			name := typ.Method(i).Name
			base, ok := strings.CutSuffix(name, "Context")
			if !ok {
				continue
			}
			if _, twin := typ.MethodByName(base); twin && !allowed[typ.String()+"."+base] {
				twins = append(twins, base)
			}
		}
		if len(twins) > 0 {
			t.Errorf("%s: %d reads spelled twice, with and without Context: %s", typ, len(twins), strings.Join(twins, ", "))
		}
	}
}
