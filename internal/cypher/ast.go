package cypher

import "aion/internal/model"

// TemporalKind is the FOR SYSTEM_TIME interval specifier form (Sec 3).
type TemporalKind int

const (
	// TemporalNone means no USE clause: the latest graph version.
	TemporalNone TemporalKind = iota
	// TemporalAsOf is AS OF t: the valid graph at t.
	TemporalAsOf
	// TemporalFromTo is FROM ti TO tj: the temporal graph over (ti, tj).
	TemporalFromTo
	// TemporalBetween is BETWEEN ti AND tj: over [ti, tj).
	TemporalBetween
	// TemporalContainedIn is CONTAINED IN (ti, tj): over [ti, tj].
	TemporalContainedIn
)

// TemporalClause is the parsed USE ... FOR SYSTEM_TIME clause.
type TemporalClause struct {
	Kind TemporalKind
	A, B Expr
}

// Window resolves the clause to a half-open system-time interval
// [Start, End) using the model's conventions.
func (tc TemporalClause) Window(eval func(Expr) (model.Value, error)) (model.Interval, error) {
	get := func(e Expr) (model.Timestamp, error) {
		v, err := eval(e)
		if err != nil {
			return 0, err
		}
		return model.Timestamp(v.Int()), nil
	}
	switch tc.Kind {
	case TemporalAsOf:
		t, err := get(tc.A)
		if err != nil {
			return model.Interval{}, err
		}
		return model.Interval{Start: t, End: t}, nil
	case TemporalFromTo: // open interval (ti, tj)
		a, err := get(tc.A)
		if err != nil {
			return model.Interval{}, err
		}
		b, err := get(tc.B)
		if err != nil {
			return model.Interval{}, err
		}
		return model.Interval{Start: a + 1, End: b}, nil
	case TemporalBetween: // [ti, tj)
		a, err := get(tc.A)
		if err != nil {
			return model.Interval{}, err
		}
		b, err := get(tc.B)
		if err != nil {
			return model.Interval{}, err
		}
		return model.Interval{Start: a, End: b}, nil
	case TemporalContainedIn: // [ti, tj]
		a, err := get(tc.A)
		if err != nil {
			return model.Interval{}, err
		}
		b, err := get(tc.B)
		if err != nil {
			return model.Interval{}, err
		}
		return model.Interval{Start: a, End: b + 1}, nil
	}
	return model.Interval{Start: -1, End: -1}, nil // latest
}

// --- expressions ------------------------------------------------------------

// Expr is an expression AST node.
type Expr interface{ exprNode() }

// Lit is a literal value.
type Lit struct{ V model.Value }

// Param is a $parameter reference.
type Param struct{ Name string }

// VarRef references a bound pattern variable.
type VarRef struct{ Name string }

// PropAccess is n.prop.
type PropAccess struct {
	Var  string
	Prop string
}

// IDCall is id(n).
type IDCall struct{ Var string }

// CountCall is COUNT(*) or COUNT(expr).
type CountCall struct{ Arg Expr } // nil arg = COUNT(*)

// BinOp is a binary operation: comparison, AND, OR, +.
type BinOp struct {
	Op   string // "=", "<>", "<", "<=", ">", ">=", "AND", "OR", "+"
	L, R Expr
}

// NotOp negates a boolean expression.
type NotOp struct{ E Expr }

// AppTimeFilter is APPLICATION_TIME CONTAINED IN (a, b) inside WHERE.
type AppTimeFilter struct{ A, B Expr }

func (Lit) exprNode()           {}
func (Param) exprNode()         {}
func (VarRef) exprNode()        {}
func (PropAccess) exprNode()    {}
func (IDCall) exprNode()        {}
func (CountCall) exprNode()     {}
func (BinOp) exprNode()         {}
func (NotOp) exprNode()         {}
func (AppTimeFilter) exprNode() {}

// --- patterns ---------------------------------------------------------------

// NodePattern is (var:Label {props}).
type NodePattern struct {
	Var    string
	Labels []string
	Props  map[string]Expr
}

// RelPattern is -[var:TYPE*min..max]-> (or <-, or undirected).
type RelPattern struct {
	Var     string
	Type    string
	Dir     model.Direction // Outgoing for ->, Incoming for <-, Both for -
	VarHops bool
	MinHops int
	MaxHops int
	Props   map[string]Expr
}

// PathPattern is an alternating node/rel chain.
type PathPattern struct {
	Nodes []NodePattern
	Rels  []RelPattern
}

// --- statements -------------------------------------------------------------

// Statement is a parsed query. A statement from Engine.Prepare is shared by
// every query that sends its text, concurrently, so execution treats every
// statement as read-only: no field, slice or map reachable from it is ever
// written after Parse returns it.
type Statement struct {
	Profile  bool // PROFILE CALL ...: the call's operators' costs instead of its rows
	Temporal TemporalClause
	Match    *MatchStmt
	Create   *CreateStmt
	Call     *CallStmt
}

// ReturnItem is one projection with an optional alias.
type ReturnItem struct {
	E     Expr
	Alias string
}

// OrderBy is an ORDER BY key.
type OrderBy struct {
	E    Expr
	Desc bool
}

// MatchStmt is MATCH p1, p2, ... [WHERE ...] followed by RETURN, SET,
// DELETE, and/or CREATE clauses.
type MatchStmt struct {
	Patterns []PathPattern
	Where    Expr // nil when absent
	Return   []ReturnItem
	Order    []OrderBy
	Limit    int // 0 = unlimited
	// Write clauses attached to the MATCH:
	Sets    []SetItem
	Deletes []string // variables to delete
	Detach  bool
	Creates []PathPattern // MATCH ... CREATE patterns reusing bound vars
}

// SetItem is SET var.prop = expr.
type SetItem struct {
	Var  string
	Prop string
	E    Expr
}

// CreateStmt is CREATE pattern, pattern, ...
type CreateStmt struct {
	Patterns []PathPattern
	Return   []ReturnItem
}

// CallStmt is CALL proc(args) [YIELD cols].
type CallStmt struct {
	Name  string
	Args  []Expr
	Yield []string
}
