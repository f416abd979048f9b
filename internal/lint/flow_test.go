package lint

import "testing"

// The testdata/flow corpus exercises the call-graph and effects layer
// directly: these tests assert on resolved edges (direct calls, methods,
// interface dispatch satisfied intra-module, function values) and on the
// bottom-up lock summaries the flow-aware analyzers consume.

func flowCorpus(t *testing.T) *Flow {
	t.Helper()
	p := loadCorpus(t, "flow")
	return NewFlow([]*Package{p})
}

// calleeSet returns the names of every resolved call target in fn.
func calleeSet(t *testing.T, fl *Flow, fn string) map[string]bool {
	t.Helper()
	fi := fl.Lookup("flow", fn)
	if fi == nil {
		t.Fatalf("Lookup(flow, %q) found no unique function", fn)
	}
	out := make(map[string]bool)
	for _, c := range fi.Calls {
		for _, tgt := range c.Targets {
			if ti := fl.Funcs[tgt]; ti != nil {
				out[ti.Name()] = true
			}
		}
	}
	return out
}

func TestFlowMethodEdge(t *testing.T) {
	fl := flowCorpus(t)
	got := calleeSet(t, fl, "CallMethod")
	if !got["flow.Bell.Ring"] {
		t.Errorf("CallMethod edges = %v; want flow.Bell.Ring", got)
	}
	if got["flow.Horn.Ring"] {
		t.Errorf("CallMethod resolved to Horn.Ring; direct method calls must not fan out")
	}
}

func TestFlowInterfaceDispatch(t *testing.T) {
	fl := flowCorpus(t)
	got := calleeSet(t, fl, "CallIface")
	if !got["flow.Bell.Ring"] || !got["flow.Horn.Ring"] {
		t.Errorf("CallIface edges = %v; want both intra-module implementations of Ringer", got)
	}
}

func TestFlowFunctionValueEdge(t *testing.T) {
	fl := flowCorpus(t)
	got := calleeSet(t, fl, "CallValue")
	if !got["flow.helper"] {
		t.Errorf("CallValue edges = %v; want flow.helper via the local function value", got)
	}
}

func TestFlowSpawnMarking(t *testing.T) {
	fl := flowCorpus(t)
	fi := fl.Lookup("flow", "Spawner")
	if fi == nil {
		t.Fatal("Lookup(flow, Spawner) = nil")
	}
	spawned := false
	for _, c := range fi.Calls {
		for _, tgt := range c.Targets {
			if ti := fl.Funcs[tgt]; ti != nil && ti.Name() == "flow.Waiter" {
				spawned = c.Spawned
			}
		}
	}
	if !spawned {
		t.Error("go Waiter(ctx) was not marked Spawned")
	}
	// A spawned call runs on another goroutine: the lock it takes is not
	// the spawner's.
	if e := fl.effects[fi.Obj]; len(e.Locks) != 0 {
		t.Errorf("Spawner locks = %v; a spawned call's locks must not propagate", e.Locks)
	}
}

func TestFlowLockEffectPropagation(t *testing.T) {
	fl := flowCorpus(t)
	use := fl.Lookup("flow", "UseBox")
	if use == nil {
		t.Fatal("Lookup(flow, UseBox) = nil")
	}
	if e := fl.effects[use.Obj]; !e.Locks["flow.Box.mu"] {
		t.Errorf("UseBox locks = %v; want flow.Box.mu via the Locked call", e.Locks)
	}
}

func TestFlowRecursionConverges(t *testing.T) {
	fl := flowCorpus(t)
	rec := fl.Lookup("flow", "Recurse")
	if rec == nil {
		t.Fatal("Lookup(flow, Recurse) = nil")
	}
	if e := fl.effects[rec.Obj]; !e.Locks["flow.Box.mu"] {
		t.Errorf("Recurse locks = %v; want flow.Box.mu, taken by its recursion partner", e.Locks)
	}
}

// Lookup finds a function by the last segment of its package path and its
// bare name ("hostdb", "commitBatch") or method ("Store.Flush"); tests use
// it to assert on edges and effects.
func (fl *Flow) Lookup(pkgSeg, name string) *FuncInfo {
	var found *FuncInfo
	for fn, fi := range fl.Funcs {
		if !pathHasSegment(fi.Pkg.ImportPath, pkgSeg) {
			continue
		}
		n := fn.Name()
		if recv := receiverTypeName(fn); recv != "" {
			n = recv + "." + n
		}
		if n == name {
			if found != nil {
				return nil // ambiguous
			}
			found = fi
		}
	}
	return found
}
