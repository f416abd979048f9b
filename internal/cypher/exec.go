package cypher

import (
	"cmp"
	"context"
	"errors"
	"expvar"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"aion/internal/aion"
	"aion/internal/memgraph"
	"aion/internal/model"
	"aion/internal/system"
)

// Val is one result cell: a scalar, a node, or a relationship.
type Val struct {
	Node *model.Node
	Rel  *model.Rel
	S    model.Value
}

// ScalarVal wraps a scalar.
func ScalarVal(v model.Value) Val { return Val{S: v} }

// NodeVal wraps a node.
func NodeVal(n *model.Node) Val { return Val{Node: n} }

// RelVal wraps a relationship.
func RelVal(r *model.Rel) Val { return Val{Rel: r} }

// String renders the cell for display.
func (v Val) String() string {
	switch {
	case v.Node != nil:
		return fmt.Sprintf("(n%d%v %v)", v.Node.ID, v.Node.Labels, v.Node.Props)
	case v.Rel != nil:
		return fmt.Sprintf("[r%d %d->%d:%s]", v.Rel.ID, v.Rel.Src, v.Rel.Tgt, v.Rel.Label)
	default:
		return v.S.String()
	}
}

// Result is a query result table.
type Result struct {
	Columns []string
	Rows    [][]Val
	// Write summary counters.
	NodesCreated, RelsCreated, PropsSet, NodesDeleted, RelsDeleted int
	// CommitTS is the commit timestamp of a write statement.
	CommitTS model.Timestamp
}

// Engine executes temporal Cypher against a host + Aion system.
//
// Concurrency contract: any number of read statements may execute
// concurrently with each other (reads take no engine lock — the host graph
// and the temporal stores synchronize internally). Write statements divide
// in two classes. Blind CREATE statements only ever add entities under
// fresh ids, so they cannot conflict with one another: they stage and
// commit concurrently, sharing a group-commit round (one fsync for all of
// them) in the host's pipeline. Read-modify-write statements (MATCH with
// SET/DELETE/CREATE clauses) are still mutually exclusive — with each other
// AND with in-flight CREATEs — so their matched bindings cannot be
// invalidated by a concurrent writer between match and commit. Reads never
// block behind anything.
type Engine struct {
	Sys   *system.System
	procs map[string]Proc

	// writeMu is the write-statement lock: blind CREATEs take the read
	// side (concurrent with each other), MATCH-writes the write side
	// (exclusive). Reads take neither.
	writeMu sync.RWMutex

	// stmts is Prepare's cache of parsed statements, keyed by the verbatim
	// query text; hits and misses count its lookups.
	stmtMu       sync.RWMutex
	stmts        map[string]*Statement
	hits, misses atomic.Uint64
}

// stmtCacheBound is how many texts Prepare caches, and stmtCacheMaxText the
// longest text it caches. A miss that finds the cache full clears it, so
// distinct literal texts cost a parse each, not memory; and a client cannot
// pin 256 frames' worth of text and AST with 256 huge texts.
const (
	stmtCacheBound   = 256
	stmtCacheMaxText = 4 << 10
)

// NewEngine creates an engine with the built-in temporal procedures
// registered, and adds its statement cache (cached texts, hits, misses) to
// sys.Metrics as "cypher".
func NewEngine(sys *system.System) *Engine {
	e := &Engine{Sys: sys, procs: map[string]Proc{}, stmts: map[string]*Statement{}}
	for name, p := range builtins {
		e.Register(name, p)
	}
	sys.Metrics.Set("cypher", expvar.Func(func() any {
		e.stmtMu.RLock()
		defer e.stmtMu.RUnlock()
		return map[string]uint64{"cached": uint64(len(e.stmts)), "hits": e.hits.Load(), "misses": e.misses.Load()}
	}))
	return e
}

// Register adds a procedure to this engine's table.
func (e *Engine) Register(name string, p Proc) { e.procs[name] = p }

// QueryContext prepares and executes one statement under ctx: pattern-match
// loops, temporal store scans, and procedures all observe cancellation
// cooperatively and return ctx.Err() shortly after the context fires.
func (e *Engine) QueryContext(c context.Context, q string, params map[string]model.Value) (*Result, error) {
	st, err := e.Prepare(q)
	if err != nil {
		return nil, err
	}
	return e.ExecContext(c, st, params)
}

// Prepare returns the parsed statement for q, calling Parse only the first
// time it sees that exact text; parse errors, and texts over 4 KiB, are not
// cached. The statement is shared by every caller that sends the same text,
// so it is read-only: nothing may write to it or to anything it references.
func (e *Engine) Prepare(q string) (*Statement, error) {
	e.stmtMu.RLock()
	st, ok := e.stmts[q]
	e.stmtMu.RUnlock()
	if ok {
		e.hits.Add(1)
		return st, nil
	}
	e.misses.Add(1)
	st, err := Parse(q)
	if err != nil || len(q) > stmtCacheMaxText {
		return st, err
	}
	e.stmtMu.Lock()
	if len(e.stmts) >= stmtCacheBound {
		clear(e.stmts)
	}
	e.stmts[q] = st
	e.stmtMu.Unlock()
	return st, nil
}

// IsWrite reports whether st mutates the graph (and must therefore hold a
// side of the write lock). Exported so serving layers can route or reject
// writes (replicas are read-only) before execution.
func IsWrite(st *Statement) bool {
	if st.Create != nil {
		return true
	}
	if m := st.Match; m != nil {
		return len(m.Sets) > 0 || len(m.Deletes) > 0 || len(m.Creates) > 0
	}
	return false
}

// isBlindCreate reports whether st only creates new entities (a bare CREATE
// with no MATCH part): such statements allocate fresh ids and reference no
// pre-existing state, so they can run concurrently and coalesce in the
// host's group-commit pipeline.
func isBlindCreate(st *Statement) bool {
	return st.Create != nil && st.Match == nil
}

// ExecContext executes a parsed statement under ctx. Blind CREATEs share
// the write lock (staging concurrently, conflict-free by construction);
// MATCH-writes hold it exclusively; reads run lock-free.
func (e *Engine) ExecContext(c context.Context, st *Statement, params map[string]model.Value) (*Result, error) {
	if c == nil {
		c = context.Background()
	}
	if IsWrite(st) {
		if isBlindCreate(st) {
			e.writeMu.RLock()
			defer e.writeMu.RUnlock()
		} else {
			e.writeMu.Lock()
			defer e.writeMu.Unlock()
		}
		// A write that spent its deadline queueing behind other writers
		// should not start applying updates.
		if err := c.Err(); err != nil {
			return nil, err
		}
	}
	ctx := &execCtx{e: e, c: c, params: params}
	switch {
	case st.Call != nil:
		return e.execCall(ctx, st)
	case st.Create != nil:
		return e.execCreate(ctx, st.Create)
	case st.Match != nil:
		return e.execMatch(ctx, st)
	}
	return nil, fmt.Errorf("cypher: empty statement")
}

type execCtx struct {
	e      *Engine
	c      context.Context
	params map[string]model.Value
	steps  int
	// The match running (matchOnGraph): the one environment its steps bind
	// their variables in, the sink its full matches stream to, and the nodes
	// its scans lend, innermost last.
	env  bindings
	out  rowSink
	lent []*model.Node
}

// checkCancel is the engine's cooperative cancellation point, called from
// the pattern-matching loops. The real ctx.Err() load is
// strided (every 256 steps) so the check stays invisible in match profiles.
func (ctx *execCtx) checkCancel() error {
	ctx.steps++
	if ctx.steps&255 == 0 {
		return ctx.c.Err()
	}
	return nil
}

// bindings maps pattern variables to matched entities.
type bindings map[string]Val

// evalScalar evaluates an expression to a scalar in a binding environment.
func (ctx *execCtx) evalScalar(env bindings, ex Expr) (model.Value, error) {
	switch x := ex.(type) {
	case Lit:
		return x.V, nil
	case Param:
		v, ok := ctx.params[x.Name]
		if !ok {
			return model.Value{}, fmt.Errorf("cypher: missing parameter $%s", x.Name)
		}
		return v, nil
	case VarRef:
		return lookup(env, x.Name)
	case PropAccess:
		v, ok := env[x.Var]
		if !ok {
			return model.Value{}, fmt.Errorf("cypher: unbound variable %s", x.Var)
		}
		switch {
		case v.Node != nil:
			return v.Node.Props[x.Prop], nil
		case v.Rel != nil:
			return v.Rel.Props[x.Prop], nil
		}
		return model.Value{}, fmt.Errorf("cypher: %s is not an entity", x.Var)
	case IDCall:
		if v, ok := env[x.Var]; ok && v.Node == nil && v.Rel == nil {
			return model.Value{}, fmt.Errorf("cypher: id() of non-entity %s", x.Var)
		}
		return lookup(env, x.Var)
	case BinOp:
		return ctx.evalBinOp(env, x)
	case NotOp:
		v, err := ctx.evalScalar(env, x.E)
		if err != nil {
			return model.Value{}, err
		}
		return model.BoolValue(!truthy(v)), nil
	case AppTimeFilter:
		return ctx.evalAppTime(env, x)
	case CountCall:
		return model.Value{}, fmt.Errorf("cypher: COUNT is only allowed in RETURN")
	}
	return model.Value{}, fmt.Errorf("cypher: unsupported expression %T", ex)
}

// lookup returns name's value in env: an entity's id, or the scalar.
func lookup(env bindings, name string) (model.Value, error) {
	v, ok := env[name]
	switch {
	case !ok:
		return model.Value{}, fmt.Errorf("cypher: unbound variable %s", name)
	case v.Node != nil:
		return model.IntValue(int64(v.Node.ID)), nil
	case v.Rel != nil:
		return model.IntValue(int64(v.Rel.ID)), nil
	}
	return v.S, nil
}

func truthy(v model.Value) bool {
	switch v.Kind() {
	case model.KindBool:
		return v.Bool()
	case model.KindNull:
		return false
	case model.KindInt:
		return v.Int() != 0
	}
	return true
}

func (ctx *execCtx) evalBinOp(env bindings, x BinOp) (model.Value, error) {
	l, err := ctx.evalScalar(env, x.L)
	if err != nil {
		return model.Value{}, err
	}
	if x.Op == "AND" && !truthy(l) {
		return model.BoolValue(false), nil
	}
	if x.Op == "OR" && truthy(l) {
		return model.BoolValue(true), nil
	}
	r, err := ctx.evalScalar(env, x.R)
	if err != nil {
		return model.Value{}, err
	}
	switch x.Op {
	case "AND", "OR":
		return model.BoolValue(truthy(r)), nil
	case "=":
		return model.BoolValue(l.Compare(r) == 0), nil
	case "<>":
		return model.BoolValue(l.Compare(r) != 0), nil
	case "<":
		return model.BoolValue(l.Compare(r) < 0), nil
	case "<=":
		return model.BoolValue(l.Compare(r) <= 0), nil
	case ">":
		return model.BoolValue(l.Compare(r) > 0), nil
	case ">=":
		return model.BoolValue(l.Compare(r) >= 0), nil
	case "+":
		if l.Kind() == model.KindString || r.Kind() == model.KindString {
			return model.StringValue(l.Str() + r.Str()), nil
		}
		if l.Kind() == model.KindFloat || r.Kind() == model.KindFloat {
			return model.FloatValue(l.Float() + r.Float()), nil
		}
		return model.IntValue(l.Int() + r.Int()), nil
	}
	return model.Value{}, fmt.Errorf("cypher: unknown operator %s", x.Op)
}

// evalAppTime implements the bitemporal WHERE filter (Sec 4.5): true iff
// every bound entity's application-time interval is contained in [a, b];
// entities without application time fall back to system time (pass).
func (ctx *execCtx) evalAppTime(env bindings, x AppTimeFilter) (model.Value, error) {
	av, err := ctx.evalScalar(env, x.A)
	if err != nil {
		return model.Value{}, err
	}
	bv, err := ctx.evalScalar(env, x.B)
	if err != nil {
		return model.Value{}, err
	}
	a, b := model.Timestamp(av.Int()), model.Timestamp(bv.Int())
	for _, v := range env {
		var iv model.Interval
		switch {
		case v.Node != nil:
			iv = v.Node.AppInterval()
		case v.Rel != nil:
			iv = v.Rel.AppInterval()
		default:
			continue
		}
		if iv.Start == 0 && iv.End == model.TSInfinity {
			continue // unset: system time already filtered
		}
		if !iv.ContainedIn(a, b) {
			return model.BoolValue(false), nil
		}
	}
	return model.BoolValue(true), nil
}

// --- MATCH ------------------------------------------------------------------

func (e *Engine) execMatch(ctx *execCtx, st *Statement) (*Result, error) {
	m := st.Match
	if IsWrite(st) {
		if st.Temporal.Kind != TemporalNone {
			return nil, fmt.Errorf("cypher: write clauses cannot target historical versions")
		}
		return e.execMatchWrite(ctx, m)
	}
	window, err := st.Temporal.Window(func(ex Expr) (model.Value, error) {
		return ctx.evalScalar(bindings{}, ex)
	})
	if err != nil {
		return nil, err
	}

	p := newProjection(m)
	switch {
	case st.Temporal.Kind == TemporalNone:
		// Latest graph: a normal read transaction, unaffected by Aion.
		// View avoids cloning; the rows stream to p while it runs, and p
		// copies what it keeps of a node a scan lends.
		e.Sys.Host.View(func(g *memgraph.Graph) {
			err = ctx.matchOnGraph(g, m, p)
		})
	case window.Start == window.End:
		// AS OF: on the graph the planner picks (Sec 5.1) by reach's estimate.
		anchored, hops, d := ctx.reach(m)
		var g model.Graph
		if g, err = e.Sys.Aion.PlanContext(ctx.c, window.Start, anchored, hops, d); err == nil {
			err = ctx.matchOnGraph(g, m, p)
		}
	default:
		// Range: history semantics for anchored single-node lookups, and
		// window-graph matching otherwise.
		err = e.matchRange(ctx, m, window, p)
	}
	if err != nil && !errors.Is(err, errLimit) {
		return nil, err
	}
	return p.result(), nil
}

// anchorID extracts an `id(var) = <const>` (or `id(var) = $param`)
// equality from the WHERE conjunction for the given variable.
func (ctx *execCtx) anchorID(where Expr, varName string) (int64, bool) {
	b, ok := where.(BinOp)
	switch {
	case !ok:
	case b.Op == "AND":
		if id, ok := ctx.anchorID(b.L, varName); ok {
			return id, true
		}
		return ctx.anchorID(b.R, varName)
	case b.Op == "=":
		for _, eq := range [2][2]Expr{{b.L, b.R}, {b.R, b.L}} {
			if idc, ok := eq[0].(IDCall); ok && idc.Var == varName {
				if v, err := ctx.evalScalar(bindings{}, eq[1]); err == nil && v.Kind() == model.KindInt {
					return v.Int(), true
				}
			}
		}
	}
	return 0, false
}

// reach is what the planner estimates a match by: whether every pattern
// starts from a node that WHERE anchors by id or an earlier pattern binds —
// where the matcher finds its first candidates without a scan — and the
// steps of its longest pattern (a var-hop relationship's upper bound), in
// their one direction, or Both when directions differ.
func (ctx *execCtx) reach(m *MatchStmt) (anchored bool, hops int, d model.Direction) {
	dirs := 0
	for i, pat := range m.Patterns {
		first := pat.Nodes[0].Var
		_, ok := ctx.anchorID(m.Where, first)
		for _, prev := range m.Patterns[:i] {
			ok = ok || first != "" && slices.ContainsFunc(prev.Nodes, func(np NodePattern) bool { return np.Var == first })
		}
		if !ok {
			return false, 0, d
		}
		n := 0
		for _, rp := range pat.Rels {
			n, dirs = n+cmp.Or(rp.MaxHops, 1), dirs|1<<rp.Dir
		}
		hops = max(hops, n)
	}
	if d = model.Both; dirs <= 1<<model.Incoming {
		d = model.Direction(dirs / 2) // none or only outgoing: Outgoing; only incoming: Incoming
	}
	return true, hops, d
}

// matchRange serves history queries over [start, end): an anchored
// single-node pattern gets one row per version of the node (Fig 1a), from the
// LineageStore; other patterns match the window graph.
func (e *Engine) matchRange(ctx *execCtx, m *MatchStmt, win model.Interval, out rowSink) error {
	np := m.Patterns[0].Nodes[0]
	if id, ok := ctx.anchorID(m.Where, np.Var); !ok || len(m.Patterns) > 1 || len(m.Patterns[0].Nodes) > 1 {
		g, err := e.Sys.Aion.GetWindowContext(ctx.c, win.Start, win.End)
		if err != nil {
			return err
		}
		return ctx.matchOnGraph(g, m, out)
	} else if ns, err := e.Sys.Aion.GetNodeContext(ctx.c, model.NodeID(id), win.Start, win.End); err != nil {
		return err
	} else {
		for _, n := range ns {
			if err == nil && nodeMatches(ctx, n, np) {
				err = ctx.emit(bindings{np.Var: NodeVal(n)}, m.Where, out)
			}
		}
		return err
	}
}

// emit hands env to out if WHERE keeps it.
func (ctx *execCtx) emit(env bindings, where Expr, out rowSink) error {
	if where != nil {
		v, err := ctx.evalScalar(env, where)
		if err != nil || !truthy(v) {
			return err
		}
	}
	return out.row(ctx, env)
}

func nodeMatches(ctx *execCtx, n *model.Node, np NodePattern) bool {
	for _, l := range np.Labels {
		if !n.HasLabel(l) {
			return false
		}
	}
	return propsMatch(ctx, n.Props, np.Props)
}

func relMatches(ctx *execCtx, r *model.Rel, rp RelPattern) bool {
	return (rp.Type == "" || r.Label == rp.Type) && propsMatch(ctx, r.Props, rp.Props)
}

// propsMatch reports whether props holds every property of a pattern's map,
// equal to its expression's value.
func propsMatch(ctx *execCtx, props model.Properties, pattern map[string]Expr) bool {
	for k, ex := range pattern {
		want, err := ctx.evalScalar(bindings{}, ex)
		if err != nil {
			return false
		}
		got, ok := props[k]
		if !ok || !got.Equal(want) {
			return false
		}
	}
	return true
}

// rowSink takes the rows a match streams. row gets each full match WHERE
// keeps, in an environment that holds until row returns: the matcher unbinds
// its variables after it, and a scan refills the node it lends.
type rowSink interface {
	row(ctx *execCtx, env bindings) error
}

// matchOnGraph matches m over g by backtracking over one environment: each
// step binds its variables for the rest of the match and unbinds them after
// it, so the comma-separated patterns join on the variables they share, and
// every full match WHERE keeps streams to out. A View's failed read fails the
// match.
func (ctx *execCtx) matchOnGraph(g model.Graph, m *MatchStmt, out rowSink) error {
	ctx.env, ctx.out = bindings{}, out
	err := ctx.pattern(g, m, 0)
	return cmp.Or(aion.ReadErr(g), err) // a failed read outranks errLimit
}

// pattern matches m.Patterns[i:], then WHERE, in ctx.env.
func (ctx *execCtx) pattern(g model.Graph, m *MatchStmt, i int) error {
	if i == len(m.Patterns) {
		return ctx.emit(ctx.env, m.Where, ctx.out)
	}
	// The first node: a prior binding or an id anchor avoids the full scan.
	first := m.Patterns[i].Nodes[0].Var
	id, known := ctx.anchorID(m.Where, first)
	if bound := ctx.env[first].Node; bound != nil {
		id, known = int64(bound.ID), true
	}
	if known {
		if n := g.Node(model.NodeID(id)); n != nil {
			return ctx.step(g, m, i, 0, nil, n)
		}
		return nil
	}
	var err error
	d := len(ctx.lent)
	g.ForEachNode(func(n *model.Node) bool {
		ctx.lent = append(ctx.lent[:d], n)
		err = ctx.step(g, m, i, 0, nil, n)
		return err == nil
	})
	ctx.lent = ctx.lent[:d]
	return err
}

// step binds n as node j of pattern i, reached by r unless j is 0, and matches
// the rest of the match from it. A nil n (a relationship's end a View failed
// to read) matches nothing.
func (ctx *execCtx) step(g model.Graph, m *MatchStmt, i, j int, r *model.Rel, n *model.Node) error {
	pat := m.Patterns[i]
	var rp RelPattern // none before the first node
	if j > 0 {
		rp = pat.Rels[j-1]
	}
	if err := ctx.checkCancel(); err != nil || n == nil || j > 0 && !relMatches(ctx, r, rp) || !nodeMatches(ctx, n, pat.Nodes[j]) {
		return err
	}
	nb, nok := ctx.bind(pat.Nodes[j].Var, NodeVal(n))
	rb, rok := ctx.bind(rp.Var, RelVal(r))
	var err error
	if nok && rok {
		err = ctx.next(g, m, i, j, n)
	}
	delete(ctx.env, nb) // unbinds what this step bound; "" is never bound
	delete(ctx.env, rb)
	return err
}

// next matches pattern i's relationship j from n, its node j, or the next
// pattern after its last node.
func (ctx *execCtx) next(g model.Graph, m *MatchStmt, i, j int, n *model.Node) error {
	pat := m.Patterns[i]
	if j == len(pat.Rels) {
		return ctx.pattern(g, m, i+1)
	}
	rp := pat.Rels[j]
	var err error
	if rp.VarHops {
		// Variable-length expansion: Alg 1, one dedup per hop.
		aion.ExpandInGraph(g, n.ID, rp.Dir, rp.MaxHops, rp.Type, func(hop int, r *model.Rel, nb *model.Node) bool {
			if err = ctx.checkCancel(); err == nil && hop+1 >= rp.MinHops {
				err = ctx.step(g, m, i, j+1, r, nb)
			}
			return err == nil
		})
		return err
	}
	g.Neighbours(n.ID, rp.Dir, func(r *model.Rel, nb model.NodeID) bool {
		err = ctx.step(g, m, i, j+1, r, g.Node(nb))
		return err == nil
	})
	return err
}

// bind binds name to v in ctx.env and returns it, for the caller to unbind
// once the match below it is done, or "" where name was bound already or is
// "" itself. ok is false where name is bound already, to another entity.
func (ctx *execCtx) bind(name string, v Val) (bound string, ok bool) {
	if name == "" {
		return "", true
	}
	prev, in := ctx.env[name]
	if !in {
		ctx.env[name] = v
		return name, true
	}
	return "", prev.Node != nil && v.Node != nil && prev.Node.ID == v.Node.ID ||
		prev.Rel != nil && v.Rel != nil && prev.Rel.ID == v.Rel.ID
}

// keep returns v as a cell that outlives the match: a node a scan lends is
// copied, with a Props map of its own, and every other entity is the caller's
// already.
func (ctx *execCtx) keep(v Val) Val {
	if v.Node == nil || !slices.Contains(ctx.lent, v.Node) {
		return v
	}
	n := *v.Node
	n.Props = maps.Clone(n.Props)
	return NodeVal(&n)
}

// projection is RETURN, the sink a read's match streams to. Each row's
// returned cells, then its ORDER BY keys, go into one slab; a COUNT keeps the
// first row's other cells and no row, only the count. A LIMIT with neither
// stops the match once it holds its rows.
type projection struct {
	Result
	m     *MatchStmt
	count bool
	n     int // rows streamed
	stop  int // rows after which row returns errLimit; 0 = never
	cells []Val
}

// errLimit is the projection's signal that it holds every row it returns:
// the matcher unwinds on it as on any error, and execMatch takes it as
// success.
var errLimit = errors.New("cypher: LIMIT reached")

func newProjection(m *MatchStmt) *projection {
	p := &projection{m: m}
	for _, item := range m.Return {
		_, ok := item.E.(CountCall)
		p.count = p.count || ok
		p.Columns = append(p.Columns, returnName(item))
	}
	if !p.count && len(m.Order) == 0 {
		p.stop = m.Limit
	}
	return p
}

func (p *projection) row(ctx *execCtx, env bindings) error {
	if p.n++; p.count && p.n > 1 {
		return nil
	}
	for _, item := range p.m.Return {
		v, err := ctx.evalVal(env, item.E)
		if err != nil {
			return err
		}
		p.cells = append(p.cells, v)
	}
	for _, ob := range p.m.Order {
		v, err := ctx.evalScalar(env, ob.E)
		if err != nil {
			return err
		}
		p.cells = append(p.cells, ScalarVal(v))
	}
	if p.n == p.stop {
		return errLimit
	}
	return nil
}

// result cuts the slab into rows, with COUNT's one row counted, and applies
// ORDER BY and LIMIT.
func (p *projection) result() *Result {
	w, width, n := len(p.m.Return), len(p.m.Return)+len(p.m.Order), p.n
	if p.count {
		if n == 0 {
			p.cells = make([]Val, width)
		}
		for i, item := range p.m.Return {
			if _, ok := item.E.(CountCall); ok {
				p.cells[i] = ScalarVal(model.IntValue(int64(p.n)))
			}
		}
		n = 1
	}
	p.Rows = make([][]Val, n)
	for i := range p.Rows {
		p.Rows[i] = p.cells[i*width : (i+1)*width : (i+1)*width]
	}
	if len(p.m.Order) > 0 {
		slices.SortStableFunc(p.Rows, func(a, b []Val) int {
			for k, ob := range p.m.Order {
				if c := a[w+k].S.Compare(b[w+k].S); c != 0 && ob.Desc {
					return -c
				} else if c != 0 {
					return c
				}
			}
			return 0
		})
		for i := range p.Rows {
			p.Rows[i] = p.Rows[i][:w:w]
		}
	}
	if p.m.Limit > 0 && len(p.Rows) > p.m.Limit {
		p.Rows = p.Rows[:p.m.Limit]
	}
	return &p.Result
}

func returnName(item ReturnItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	switch x := item.E.(type) {
	case VarRef:
		return x.Name
	case PropAccess:
		return x.Var + "." + x.Prop
	case IDCall:
		return "id(" + x.Var + ")"
	case CountCall:
		return "count"
	}
	return "expr"
}

// evalVal evaluates a RETURN expression to a cell that outlives the match
// (keep), an entity for a variable; a COUNT is the projection's to fill.
func (ctx *execCtx) evalVal(env bindings, ex Expr) (Val, error) {
	switch x := ex.(type) {
	case CountCall:
		return Val{}, nil
	case VarRef:
		if v, ok := env[x.Name]; ok {
			return ctx.keep(v), nil
		}
	}
	s, err := ctx.evalScalar(env, ex)
	return ScalarVal(s), err
}
