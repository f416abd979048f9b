package lint

import "testing"

// The testdata/flow corpus exercises the call-graph and effects layer
// directly: these tests assert on resolved edges (direct calls, methods,
// interface dispatch satisfied intra-module, function values) and on the
// bottom-up summaries the flow-aware analyzers consume.

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
	if !fl.Effects(fi.Obj).Spawns {
		t.Error("Spawner's effect summary lost the spawn")
	}
}

func TestFlowExitAndLoopEffects(t *testing.T) {
	fl := flowCorpus(t)
	waiter := fl.Lookup("flow", "Waiter")
	spinner := fl.Lookup("flow", "Spinner")
	if waiter == nil || spinner == nil {
		t.Fatal("flow corpus lookups failed")
	}
	if e := fl.Effects(waiter.Obj); !e.ExitAware {
		t.Error("Waiter receives from ctx.Done() but is not ExitAware")
	}
	if e := fl.Effects(spinner.Obj); !e.LoopForever || e.ExitAware {
		t.Errorf("Spinner effects = LoopForever=%v ExitAware=%v; want true/false", e.LoopForever, e.ExitAware)
	}
}

func TestFlowLockEffectPropagation(t *testing.T) {
	fl := flowCorpus(t)
	use := fl.Lookup("flow", "UseBox")
	if use == nil {
		t.Fatal("Lookup(flow, UseBox) = nil")
	}
	if e := fl.Effects(use.Obj); !e.Locks["flow.Box.mu"] {
		t.Errorf("UseBox locks = %v; want flow.Box.mu via the Locked call", e.Locks)
	}
}

func TestFlowRecursionConverges(t *testing.T) {
	fl := flowCorpus(t)
	rec := fl.Lookup("flow", "Recurse")
	if rec == nil {
		t.Fatal("Lookup(flow, Recurse) = nil")
	}
	if e := fl.Effects(rec.Obj); !e.Spawns {
		t.Error("Recurse's summary lost the spawn made by its recursion partner")
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
