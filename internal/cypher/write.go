package cypher

import (
	"fmt"

	"aion/internal/hostdb"
	"aion/internal/memgraph"
	"aion/internal/model"
)

// execCreate runs a CREATE statement in a host transaction. The after-
// commit listener feeds the changes into Aion (Fig 4 stage 1). Its RETURN
// projects the one row it created, once it is committed.
func (e *Engine) execCreate(ctx *execCtx, c *CreateStmt) (*Result, error) {
	p, env := newProjection(&MatchStmt{Return: c.Return}), bindings{}
	tx := e.Sys.Host.Begin()
	for _, pat := range c.Patterns {
		if err := e.createPattern(ctx, tx, pat, env, &p.Result); err != nil {
			tx.Rollback()
			return nil, err
		}
	}
	ts, err := tx.Commit()
	if p.CommitTS = ts; err == nil && len(c.Return) > 0 {
		err = p.row(ctx, env)
	}
	if err != nil {
		return nil, err
	}
	return p.result(), nil
}

// createPattern creates (or reuses via bound variables) the nodes of one
// pattern chain and then its relationships, inside the given transaction.
func (e *Engine) createPattern(ctx *execCtx, tx *hostdb.Tx, pat PathPattern, env bindings, res *Result) error {
	ids := make([]model.NodeID, len(pat.Nodes))
	for i, np := range pat.Nodes {
		if np.Var != "" {
			if bound, ok := env[np.Var]; ok && bound.Node != nil {
				ids[i] = bound.Node.ID
				continue
			}
		}
		props, err := ctx.evalProps(np.Props)
		if err != nil {
			return err
		}
		id, err := tx.CreateNode(np.Labels, props)
		if err != nil {
			return err
		}
		ids[i] = id
		res.NodesCreated++
		if np.Var != "" {
			env[np.Var] = NodeVal(tx.Node(id))
		}
	}
	for i, rp := range pat.Rels {
		if rp.VarHops {
			return fmt.Errorf("cypher: cannot CREATE variable-length relationships")
		}
		src, tgt := ids[i], ids[i+1]
		if rp.Dir == model.Incoming {
			src, tgt = tgt, src
		}
		props, err := ctx.evalProps(rp.Props)
		if err != nil {
			return err
		}
		rid, err := tx.CreateRel(src, tgt, rp.Type, props)
		if err != nil {
			return err
		}
		res.RelsCreated++
		if rp.Var != "" {
			env[rp.Var] = RelVal(tx.Rel(rid))
		}
	}
	return nil
}

func (ctx *execCtx) evalProps(exprs map[string]Expr) (model.Properties, error) {
	if len(exprs) == 0 {
		return nil, nil
	}
	props := make(model.Properties, len(exprs))
	for k, ex := range exprs {
		v, err := ctx.evalScalar(bindings{}, ex)
		if err != nil {
			return nil, err
		}
		props[k] = v
	}
	return props, nil
}

// kept is the sink that keeps every row: a copy of its environment, with each
// node a scan lent copied (keep).
type kept []bindings

func (k *kept) row(ctx *execCtx, env bindings) error {
	c := make(bindings, len(env))
	for name, v := range env {
		c[name] = ctx.keep(v)
	}
	*k = append(*k, c)
	return nil
}

// execMatchWrite runs MATCH ... SET / DELETE against the latest graph in a
// host transaction. It keeps the matched rows before it stages a write:
// staging takes the host's lock, which View holds while the match runs.
func (e *Engine) execMatchWrite(ctx *execCtx, m *MatchStmt) (res *Result, err error) {
	var rows kept
	e.Sys.Host.View(func(g *memgraph.Graph) {
		err = ctx.matchOnGraph(g, m, &rows)
	})
	if err != nil {
		return nil, err
	}
	res = &Result{}
	tx := e.Sys.Host.Begin()
	defer func() {
		if err != nil {
			tx.Rollback()
		}
	}()
	deletedNodes := map[model.NodeID]bool{}
	deletedRels := map[model.RelID]bool{}
	deleteRel := func(rid model.RelID) error {
		if deletedRels[rid] {
			return nil
		}
		deletedRels[rid] = true
		res.RelsDeleted++
		return tx.DeleteRel(rid)
	}
	setApplied := map[string]bool{}
	for _, env := range rows {
		// MATCH ... CREATE: create pattern elements per matched row,
		// reusing bound variables as endpoints.
		for _, pat := range m.Creates {
			if err := e.createPattern(ctx, tx, pat, env, res); err != nil {
				return nil, err
			}
		}
		for _, item := range m.Sets {
			v, ok := env[item.Var]
			if !ok {
				return nil, fmt.Errorf("cypher: SET of unbound variable %s", item.Var)
			}
			val, err := ctx.evalScalar(env, item.E)
			if err != nil {
				return nil, err
			}
			id, _ := lookup(env, item.Var) // the entity's id
			props, key := model.Properties{item.Prop: val}, fmt.Sprintf("%t%d.%s", v.Rel != nil, id.Int(), item.Prop)
			switch {
			case v.Node == nil && v.Rel == nil:
				return nil, fmt.Errorf("cypher: SET on non-entity %s", item.Var)
			case setApplied[key]:
				continue
			case v.Node != nil:
				err = tx.SetNodeProps(v.Node.ID, props, nil)
			default:
				err = tx.SetRelProps(v.Rel.ID, props, nil)
			}
			if err != nil {
				return nil, err
			}
			setApplied[key] = true
			res.PropsSet++
		}
		for _, name := range m.Deletes {
			v, ok := env[name]
			switch {
			case !ok:
				return nil, fmt.Errorf("cypher: DELETE of unbound variable %s", name)
			case v.Rel != nil:
				err = deleteRel(v.Rel.ID)
			case v.Node != nil && !deletedNodes[v.Node.ID]:
				deletedNodes[v.Node.ID] = true
				if m.Detach { // DETACH DELETE: remove incident relationships first.
					for _, rid := range tx.IncidentRels(v.Node.ID) {
						if err = deleteRel(rid); err != nil {
							return nil, err
						}
					}
				}
				err = tx.DeleteNode(v.Node.ID)
				res.NodesDeleted++
			}
			if err != nil {
				return nil, err
			}
		}
	}
	ts, err := tx.Commit()
	if err != nil {
		return nil, err
	}
	res.CommitTS = ts
	return res, nil
}
