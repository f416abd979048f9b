package replica

import (
	"fmt"

	"aion/internal/bolt"
	"aion/internal/cypher"
	"aion/internal/hostdb"
	"aion/internal/model"
)

// lagError wraps an unevaluable-timestamp condition as a retryable
// FAILURE: the gate cannot prove the read stays below the watermark, and
// the primary can always answer it.
func lagError(format string, args ...any) error {
	return &bolt.ServerError{Code: bolt.FailReplicaLag, Msg: fmt.Sprintf(format, args...)}
}

// Gate is the follower's statement screen, installed as
// bolt.Options.ReadGate. It enforces the serving contract:
//
//   - a poisoned (diverged) follower serves nothing;
//   - writes are rejected with FailReadOnly (terminal here; clients send
//     them to the primary);
//   - temporal reads must lie entirely at or below the watermark — their
//     answers are immutable history the follower already holds;
//   - latest reads are served at the watermark only while the follower is
//     fresh (StalenessBound, DisconnectGrace); otherwise FailReplicaLag
//     degrades the deployment to primary-only serving.
//
// Timestamp expressions are resolved from literals and parameters only; a
// timestamp the gate cannot evaluate (e.g. computed from matched data) is
// conservatively rejected as retryable — the primary answers it.
func (a *Applier) Gate(st *cypher.Statement, params map[string]model.Value) error {
	if err := a.Err(); err != nil {
		return &bolt.ServerError{Code: bolt.FailDiverged, Msg: err.Error()}
	}
	// A promoted follower is the primary now: the gate steps aside entirely
	// and the engine serves reads and writes directly. (Fenced nodes keep
	// the replica gating — their data is still servable read-only history.)
	if a.sys.Host.Role() == hostdb.RolePrimary {
		return nil
	}
	if cypher.IsWrite(st) {
		return &bolt.ServerError{Code: bolt.FailReadOnly, Msg: "replica: writes must go to the primary"}
	}
	eval := func(e cypher.Expr) (model.Value, error) {
		switch x := e.(type) {
		case cypher.Lit:
			return x.V, nil
		case cypher.Param:
			v, ok := params[x.Name]
			if !ok {
				return model.Value{}, fmt.Errorf("missing parameter $%s", x.Name)
			}
			return v, nil
		}
		return model.Value{}, fmt.Errorf("timestamp not statically evaluable")
	}

	wm := a.Watermark()
	if c := st.Call; c != nil {
		// A procedure outside the built-in table passes ungated: it can only
		// read what the follower's stores hold, which never exceeds the
		// watermark.
		for _, i := range cypher.TimestampArgs(c.Name) {
			if i >= len(c.Args) {
				continue // arity error; the engine reports it properly
			}
			v, err := eval(c.Args[i])
			if err != nil {
				return lagError("replica: cannot bound CALL %s timestamp: %v", c.Name, err)
			}
			if ts := model.Timestamp(v.Int()); ts > wm {
				return lagError("replica: CALL %s at timestamp %d above replicated watermark %d", c.Name, ts, wm)
			}
		}
		return nil
	}

	if st.Temporal.Kind == cypher.TemporalNone {
		return a.latestOK()
	}
	iv, err := st.Temporal.Window(eval)
	if err != nil {
		return lagError("replica: cannot bound temporal window: %v", err)
	}
	// AS OF t yields {t, t}; ranges yield half-open [Start, End) whose
	// newest required version is End-1.
	need := iv.End - 1
	if iv.Start == iv.End {
		need = iv.Start
	}
	if need > wm {
		return lagError("replica: read at timestamp %d above replicated watermark %d", need, wm)
	}
	return nil
}
