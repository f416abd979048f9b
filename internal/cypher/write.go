package cypher

import (
	"fmt"

	"aion/internal/hostdb"
	"aion/internal/memgraph"
	"aion/internal/model"
)

// execCreate runs a CREATE statement in a host transaction. The after-
// commit listener feeds the changes into Aion (Fig 4 stage 1).
func (e *Engine) execCreate(ctx *execCtx, c *CreateStmt) (*Result, error) {
	res := &Result{}
	env := bindings{}
	tx := e.Sys.Host.Begin()
	for _, pat := range c.Patterns {
		if err := e.createPattern(ctx, tx, pat, env, res); err != nil {
			tx.Rollback()
			return nil, err
		}
	}
	ts, err := tx.Commit()
	if err != nil {
		return nil, err
	}
	res.CommitTS = ts
	for _, item := range c.Return {
		res.Columns = append(res.Columns, returnName(item))
	}
	if len(c.Return) > 0 {
		row := make([]Val, len(c.Return))
		for i, item := range c.Return {
			v, err := ctx.evalVal(env, item.E)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		res.Rows = [][]Val{row}
	}
	return res, nil
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

// execMatchWrite runs MATCH ... SET / DELETE against the latest graph in a
// host transaction.
func (e *Engine) execMatchWrite(ctx *execCtx, m *MatchStmt) (*Result, error) {
	var rows []bindings
	var err error
	e.Sys.Host.View(func(g *memgraph.Graph) {
		rows, err = ctx.matchOnGraph(g, m)
	})
	if err != nil {
		return nil, err
	}
	res := &Result{}
	tx := e.Sys.Host.Begin()
	deletedNodes := map[model.NodeID]bool{}
	deletedRels := map[model.RelID]bool{}
	setApplied := map[string]bool{}
	for _, env := range rows {
		// MATCH ... CREATE: create pattern elements per matched row,
		// reusing bound variables as endpoints.
		for _, pat := range m.Creates {
			if err := e.createPattern(ctx, tx, pat, env, res); err != nil {
				tx.Rollback()
				return nil, err
			}
		}
		for _, item := range m.Sets {
			v, ok := env[item.Var]
			if !ok {
				tx.Rollback()
				return nil, fmt.Errorf("cypher: SET of unbound variable %s", item.Var)
			}
			val, err := ctx.evalScalar(env, item.E)
			if err != nil {
				tx.Rollback()
				return nil, err
			}
			switch {
			case v.Node != nil:
				key := fmt.Sprintf("n%d.%s", v.Node.ID, item.Prop)
				if setApplied[key] {
					continue
				}
				setApplied[key] = true
				if err := tx.SetNodeProps(v.Node.ID, model.Properties{item.Prop: val}, nil); err != nil {
					tx.Rollback()
					return nil, err
				}
			case v.Rel != nil:
				key := fmt.Sprintf("r%d.%s", v.Rel.ID, item.Prop)
				if setApplied[key] {
					continue
				}
				setApplied[key] = true
				if err := tx.SetRelProps(v.Rel.ID, model.Properties{item.Prop: val}, nil); err != nil {
					tx.Rollback()
					return nil, err
				}
			default:
				tx.Rollback()
				return nil, fmt.Errorf("cypher: SET on non-entity %s", item.Var)
			}
			res.PropsSet++
		}
		for _, name := range m.Deletes {
			v, ok := env[name]
			if !ok {
				tx.Rollback()
				return nil, fmt.Errorf("cypher: DELETE of unbound variable %s", name)
			}
			switch {
			case v.Rel != nil:
				if deletedRels[v.Rel.ID] {
					continue
				}
				deletedRels[v.Rel.ID] = true
				if err := tx.DeleteRel(v.Rel.ID); err != nil {
					tx.Rollback()
					return nil, err
				}
				res.RelsDeleted++
			case v.Node != nil:
				if deletedNodes[v.Node.ID] {
					continue
				}
				deletedNodes[v.Node.ID] = true
				if m.Detach {
					// DETACH DELETE: remove incident relationships first.
					for _, rid := range tx.IncidentRels(v.Node.ID) {
						if !deletedRels[rid] {
							deletedRels[rid] = true
							if err := tx.DeleteRel(rid); err != nil {
								tx.Rollback()
								return nil, err
							}
							res.RelsDeleted++
						}
					}
				}
				if err := tx.DeleteNode(v.Node.ID); err != nil {
					tx.Rollback()
					return nil, err
				}
				res.NodesDeleted++
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
