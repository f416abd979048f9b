package cypher

import (
	"fmt"
	"strconv"
	"strings"

	"aion/internal/model"
)

type parser struct {
	toks []token
	pos  int
}

// Parse parses a temporal Cypher statement.
func Parse(query string) (*Statement, error) {
	toks, err := lex(query)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	if !p.cur().isEOF() {
		return nil, p.errf("unexpected trailing input %q", p.cur().text)
	}
	return st, nil
}

func (t token) isEOF() bool { return t.kind == tokEOF }

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) peek() token { return p.toks[min(p.pos+1, len(p.toks)-1)] }
func (p *parser) next() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("cypher: parse error near position %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

func (p *parser) expectKw(kw string) error {
	if !p.cur().isKw(kw) {
		return p.errf("expected %s, got %q", kw, p.cur().text)
	}
	p.next()
	return nil
}

func (p *parser) expect(kind tokenKind, what string) (token, error) {
	if p.cur().kind != kind {
		return token{}, p.errf("expected %s, got %q", what, p.cur().text)
	}
	return p.next(), nil
}

// ident parses an identifier and returns its text.
func (p *parser) ident(what string) (string, error) {
	t, err := p.expect(tokIdent, what)
	return t.text, err
}

// list parses one or more items separated by sep tokens.
func list[T any](p *parser, sep tokenKind, item func() (T, error)) ([]T, error) {
	var out []T
	for {
		x, err := item()
		if err != nil {
			return nil, err
		}
		out = append(out, x)
		if p.cur().kind != sep {
			return out, nil
		}
		p.next()
	}
}

func (p *parser) statement() (*Statement, error) {
	st := &Statement{}
	if t := p.cur(); t.kind == tokIdent && strings.EqualFold(t.text, "PROFILE") { // not a keyword: "profile" stays a valid name
		if p.next(); !p.cur().isKw("CALL") {
			return nil, p.errf("PROFILE supports CALL only, got %q", p.cur().text)
		}
		st.Profile = true
	}
	if p.cur().isKw("USE") {
		tc, err := p.useClause()
		if err != nil {
			return nil, err
		}
		st.Temporal = tc
	}
	switch {
	case p.cur().isKw("MATCH"):
		m, err := p.matchStmt()
		if err != nil {
			return nil, err
		}
		st.Match = m
	case p.cur().isKw("CREATE"):
		c, err := p.createStmt()
		if err != nil {
			return nil, err
		}
		st.Create = c
	case p.cur().isKw("CALL"):
		c, err := p.callStmt()
		if err != nil {
			return nil, err
		}
		st.Call = c
	default:
		return nil, p.errf("expected MATCH, CREATE, or CALL, got %q", p.cur().text)
	}
	return st, nil
}

// useClause parses USE GDB [FOR SYSTEM_TIME <spec>].
func (p *parser) useClause() (TemporalClause, error) {
	tc := TemporalClause{Kind: TemporalNone}
	if err := p.expectKw("USE"); err != nil {
		return tc, err
	}
	// The database name: GDB keyword or an identifier.
	if p.cur().isKw("GDB") || p.cur().kind == tokIdent {
		p.next()
	} else {
		return tc, p.errf("expected database name after USE")
	}
	if !p.cur().isKw("FOR") {
		return tc, nil
	}
	p.next()
	if err := p.expectKw("SYSTEM_TIME"); err != nil {
		return tc, err
	}
	switch {
	case p.cur().isKw("AS"):
		p.next()
		if err := p.expectKw("OF"); err != nil {
			return tc, err
		}
		e, err := p.additive()
		if err != nil {
			return tc, err
		}
		tc.Kind, tc.A = TemporalAsOf, e
	case p.cur().isKw("FROM"):
		p.next()
		return p.period(TemporalFromTo, func() error { return p.expectKw("TO") })
	case p.cur().isKw("BETWEEN"):
		p.next()
		return p.period(TemporalBetween, func() error { return p.expectKw("AND") })
	case p.cur().isKw("CONTAINED"):
		p.next()
		if err := p.expectKw("IN"); err != nil {
			return tc, err
		}
		if _, err := p.expect(tokLParen, "("); err != nil {
			return tc, err
		}
		tc, err := p.period(TemporalContainedIn, func() error { _, err := p.expect(tokComma, ","); return err })
		if err != nil {
			return tc, err
		}
		_, err = p.expect(tokRParen, ")")
		return tc, err
	default:
		return tc, p.errf("expected AS OF / FROM / BETWEEN / CONTAINED IN")
	}
	return tc, nil
}

// period parses the two bounds of a period of the given kind, a and b on
// either side of what sep parses.
func (p *parser) period(kind TemporalKind, sep func() error) (TemporalClause, error) {
	a, err := p.additive()
	if err == nil {
		err = sep()
	}
	if err != nil {
		return TemporalClause{Kind: TemporalNone}, err
	}
	b, err := p.additive()
	return TemporalClause{Kind: kind, A: a, B: b}, err
}

func (p *parser) matchStmt() (*MatchStmt, error) {
	if err := p.expectKw("MATCH"); err != nil {
		return nil, err
	}
	m := &MatchStmt{}
	var err error
	if m.Patterns, err = list(p, tokComma, p.pathPattern); err != nil {
		return nil, err
	}
	if p.cur().isKw("WHERE") {
		p.next()
		m.Where, err = p.expr()
		if err != nil {
			return nil, err
		}
	}
	for {
		switch {
		case p.cur().isKw("CREATE"):
			p.next()
			pats, err := list(p, tokComma, p.pathPattern)
			if err != nil {
				return nil, err
			}
			m.Creates = append(m.Creates, pats...)
			continue
		case p.cur().isKw("SET"):
			p.next()
			items, err := list(p, tokComma, p.setItem)
			if err != nil {
				return nil, err
			}
			m.Sets = append(m.Sets, items...)
			continue
		case p.cur().isKw("DETACH"):
			p.next()
			m.Detach = true
			continue
		case p.cur().isKw("DELETE"):
			p.next()
			vars, err := list(p, tokComma, func() (string, error) { return p.ident("variable") })
			if err != nil {
				return nil, err
			}
			m.Deletes = append(m.Deletes, vars...)
			continue
		}
		break
	}
	if p.cur().isKw("RETURN") {
		p.next()
		m.Return, err = p.returnItems()
		if err != nil {
			return nil, err
		}
	}
	if p.cur().isKw("ORDER") {
		p.next()
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		if m.Order, err = list(p, tokComma, p.orderItem); err != nil {
			return nil, err
		}
	}
	if p.cur().isKw("LIMIT") {
		p.next()
		t, err := p.expect(tokInt, "limit")
		if err != nil {
			return nil, err
		}
		m.Limit, _ = strconv.Atoi(t.text)
	}
	if len(m.Return) == 0 && len(m.Sets) == 0 && len(m.Deletes) == 0 && len(m.Creates) == 0 {
		return nil, p.errf("MATCH requires RETURN, SET, DELETE, or CREATE")
	}
	return m, nil
}

func (p *parser) orderItem() (OrderBy, error) {
	e, err := p.expr()
	if err != nil {
		return OrderBy{}, err
	}
	ob := OrderBy{E: e}
	if p.cur().isKw("DESC") {
		ob.Desc = true
		p.next()
	} else if p.cur().isKw("ASC") {
		p.next()
	}
	return ob, nil
}

func (p *parser) setItem() (SetItem, error) {
	v, err := p.expect(tokIdent, "variable")
	if err != nil {
		return SetItem{}, err
	}
	if _, err := p.expect(tokDot, "."); err != nil {
		return SetItem{}, err
	}
	prop, err := p.expect(tokIdent, "property")
	if err != nil {
		return SetItem{}, err
	}
	if _, err := p.expect(tokEq, "="); err != nil {
		return SetItem{}, err
	}
	e, err := p.expr()
	if err != nil {
		return SetItem{}, err
	}
	return SetItem{Var: v.text, Prop: prop.text, E: e}, nil
}

func (p *parser) createStmt() (*CreateStmt, error) {
	if err := p.expectKw("CREATE"); err != nil {
		return nil, err
	}
	c := &CreateStmt{}
	var err error
	if c.Patterns, err = list(p, tokComma, p.pathPattern); err != nil {
		return nil, err
	}
	if p.cur().isKw("RETURN") {
		p.next()
		if c.Return, err = p.returnItems(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (p *parser) callStmt() (*CallStmt, error) {
	if err := p.expectKw("CALL"); err != nil {
		return nil, err
	}
	parts, err := list(p, tokDot, func() (string, error) { return p.ident("procedure name") })
	if err != nil {
		return nil, err
	}
	c := &CallStmt{Name: strings.Join(parts, ".")}
	if _, err := p.expect(tokLParen, "("); err != nil {
		return nil, err
	}
	if p.cur().kind != tokRParen {
		if c.Args, err = list(p, tokComma, p.expr); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokRParen, ")"); err != nil {
		return nil, err
	}
	if p.cur().isKw("YIELD") {
		p.next()
		if c.Yield, err = list(p, tokComma, func() (string, error) { return p.ident("yield column") }); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (p *parser) returnItems() ([]ReturnItem, error) {
	return list(p, tokComma, func() (ReturnItem, error) {
		e, err := p.expr()
		if err != nil || !p.cur().isKw("AS") {
			return ReturnItem{E: e}, err
		}
		p.next()
		alias, err := p.ident("alias")
		return ReturnItem{E: e, Alias: alias}, err
	})
}

// pathPattern parses (n)-[r]->(m)-... chains.
func (p *parser) pathPattern() (PathPattern, error) {
	var pat PathPattern
	n, err := p.nodePattern()
	if err != nil {
		return pat, err
	}
	pat.Nodes = append(pat.Nodes, n)
	for p.cur().kind == tokDash || p.cur().kind == tokArrowL {
		r, err := p.relPattern()
		if err != nil {
			return pat, err
		}
		n, err := p.nodePattern()
		if err != nil {
			return pat, err
		}
		pat.Rels = append(pat.Rels, r)
		pat.Nodes = append(pat.Nodes, n)
	}
	return pat, nil
}

func (p *parser) nodePattern() (NodePattern, error) {
	var np NodePattern
	if _, err := p.expect(tokLParen, "("); err != nil {
		return np, err
	}
	if p.cur().kind == tokIdent {
		np.Var = p.next().text
	}
	for p.cur().kind == tokColon {
		p.next()
		t, err := p.expect(tokIdent, "label")
		if err != nil {
			return np, err
		}
		np.Labels = append(np.Labels, t.text)
	}
	if p.cur().kind == tokLBrace {
		props, err := p.propMap()
		if err != nil {
			return np, err
		}
		np.Props = props
	}
	if _, err := p.expect(tokRParen, ")"); err != nil {
		return np, err
	}
	return np, nil
}

// relPattern parses -[r:T*1..3]-> / <-[r]- / -[r]-.
func (p *parser) relPattern() (RelPattern, error) {
	var rp RelPattern
	leftArrow := false
	switch p.cur().kind {
	case tokArrowL:
		leftArrow = true
		p.next()
	case tokDash:
		p.next()
	default:
		return rp, p.errf("expected relationship pattern")
	}
	if _, err := p.expect(tokLBracket, "["); err != nil {
		return rp, err
	}
	if p.cur().kind == tokIdent {
		rp.Var = p.next().text
	}
	if p.cur().kind == tokColon {
		p.next()
		t, err := p.expect(tokIdent, "relationship type")
		if err != nil {
			return rp, err
		}
		rp.Type = t.text
	}
	if p.cur().kind == tokStar {
		p.next()
		rp.VarHops, rp.MinHops, rp.MaxHops = true, 1, 1
		if p.cur().kind == tokInt {
			rp.MinHops, _ = strconv.Atoi(p.next().text)
			rp.MaxHops = rp.MinHops
		}
		if rp.MinHops == 0 {
			return rp, p.errf("a variable-length relationship takes at least one hop")
		}
		if p.cur().kind == tokDotDot {
			p.next()
			m, err := p.expect(tokInt, "max hops")
			if err != nil {
				return rp, err
			}
			rp.MaxHops, _ = strconv.Atoi(m.text)
		}
	}
	if p.cur().kind == tokLBrace {
		props, err := p.propMap()
		if err != nil {
			return rp, err
		}
		rp.Props = props
	}
	if _, err := p.expect(tokRBracket, "]"); err != nil {
		return rp, err
	}
	switch {
	case leftArrow:
		if _, err := p.expect(tokDash, "-"); err != nil {
			return rp, err
		}
		rp.Dir = model.Incoming
	case p.cur().kind == tokArrowR:
		p.next()
		rp.Dir = model.Outgoing
	case p.cur().kind == tokDash:
		p.next()
		rp.Dir = model.Both
	default:
		return rp, p.errf("expected -> or - after relationship")
	}
	return rp, nil
}

func (p *parser) propMap() (map[string]Expr, error) {
	if _, err := p.expect(tokLBrace, "{"); err != nil {
		return nil, err
	}
	props := map[string]Expr{}
	for p.cur().kind != tokRBrace {
		k, err := p.expect(tokIdent, "property key")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokColon, ":"); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		props[k.text] = e
		if p.cur().kind == tokComma {
			p.next()
		}
	}
	p.next() // }
	return props, nil
}

// --- expressions ------------------------------------------------------------

func (p *parser) expr() (Expr, error) { return p.orExpr() }

// chain parses operand (op operand)*, left-associative, while at holds for
// the token after an operand.
func (p *parser) chain(op string, at func(token) bool, operand func() (Expr, error)) (Expr, error) {
	l, err := operand()
	for err == nil && at(p.cur()) {
		p.next()
		var r Expr
		r, err = operand()
		l = BinOp{Op: op, L: l, R: r}
	}
	if err != nil {
		return nil, err
	}
	return l, nil
}

func (p *parser) orExpr() (Expr, error) {
	return p.chain("OR", func(t token) bool { return t.isKw("OR") }, p.andExpr)
}

func (p *parser) andExpr() (Expr, error) {
	return p.chain("AND", func(t token) bool { return t.isKw("AND") }, p.notExpr)
}

func (p *parser) notExpr() (Expr, error) {
	if p.cur().isKw("NOT") {
		p.next()
		e, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return NotOp{E: e}, nil
	}
	return p.comparison()
}

func (p *parser) comparison() (Expr, error) {
	l, err := p.additive()
	if err != nil {
		return nil, err
	}
	var op string
	switch p.cur().kind {
	case tokEq:
		op = "="
	case tokNeq:
		op = "<>"
	case tokLt:
		op = "<"
	case tokLte:
		op = "<="
	case tokGt:
		op = ">"
	case tokGte:
		op = ">="
	default:
		return l, nil
	}
	p.next()
	r, err := p.additive()
	if err != nil {
		return nil, err
	}
	return BinOp{Op: op, L: l, R: r}, nil
}

func (p *parser) additive() (Expr, error) {
	return p.chain("+", func(t token) bool { return t.kind == tokPlus }, p.primary)
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokInt:
		p.next()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", t.text)
		}
		return Lit{model.IntValue(n)}, nil
	case t.kind == tokFloat:
		p.next()
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad float %q", t.text)
		}
		return Lit{model.FloatValue(f)}, nil
	case t.kind == tokString:
		p.next()
		return Lit{model.StringValue(t.text)}, nil
	case t.isKw("TRUE"):
		p.next()
		return Lit{model.BoolValue(true)}, nil
	case t.isKw("FALSE"):
		p.next()
		return Lit{model.BoolValue(false)}, nil
	case t.isKw("NULL"):
		p.next()
		return Lit{model.NullValue()}, nil
	case t.kind == tokParam:
		p.next()
		return Param{Name: t.text}, nil
	case t.isKw("COUNT"):
		p.next()
		if _, err := p.expect(tokLParen, "("); err != nil {
			return nil, err
		}
		var arg Expr
		if p.cur().kind == tokStar {
			p.next()
		} else {
			var err error
			arg, err = p.expr()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return CountCall{Arg: arg}, nil
	case t.isKw("APPLICATION_TIME"):
		p.next()
		if err := p.expectKw("CONTAINED"); err != nil {
			return nil, err
		}
		if err := p.expectKw("IN"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokLParen, "("); err != nil {
			return nil, err
		}
		a, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokComma, ","); err != nil {
			return nil, err
		}
		b, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return AppTimeFilter{A: a, B: b}, nil
	case t.kind == tokIdent:
		// id(n), variable, or variable.prop.
		if t.text == "id" && p.peek().kind == tokLParen {
			p.next()
			p.next()
			v, err := p.expect(tokIdent, "variable")
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRParen, ")"); err != nil {
				return nil, err
			}
			return IDCall{Var: v.text}, nil
		}
		p.next()
		if p.cur().kind == tokDot {
			p.next()
			prop, err := p.expect(tokIdent, "property")
			if err != nil {
				return nil, err
			}
			return PropAccess{Var: t.text, Prop: prop.text}, nil
		}
		return VarRef{Name: t.text}, nil
	case t.kind == tokLParen:
		p.next()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, p.errf("unexpected token %q in expression", t.text)
}
