package lineagestore

import (
	"context"
	"time"
)

// Profile collects what each operator of one query's LineageStore reads cost,
// for PROFILE. A caller puts one in the query's ctx with WithProfile; a read
// looks for it with one ctx.Value per call and adds to it only when it is
// there. One query's reads run on one goroutine, so it takes no lock.
type Profile struct {
	Ops []ProfileOp // one per operator, in the order each first ran
}

// ProfileOp is one operator's row — its name says the tree it reads: the
// store it runs in, the rows it produced, its cursors' B+Tree descents and
// page-cache gets, the version records it decoded and the time it took,
// summed over every call of the query.
type ProfileOp struct {
	Operator, Store               string
	Rows, Descents, Gets, Decoded int
	Elapsed                       time.Duration
}

type profileKey struct{}

// store is the Store column of every operator this package profiles.
const store = "LineageStore"

// WithProfile returns ctx carrying p, for the reads made under it to fill.
func WithProfile(ctx context.Context, p *Profile) context.Context {
	return context.WithValue(ctx, profileKey{}, p)
}

// start is the time an operator starts at: zero, and no clock read, without
// a profile.
func (p *Profile) start() time.Time {
	if p == nil {
		return time.Time{}
	}
	return time.Now()
}

// add sums op, which ran from t0, into its operator's row.
func (p *Profile) add(op ProfileOp, t0 time.Time) {
	if p == nil {
		return
	}
	op.Elapsed = time.Since(t0)
	for i := range p.Ops {
		if o := &p.Ops[i]; o.Operator == op.Operator {
			o.Rows, o.Descents, o.Gets, o.Decoded = o.Rows+op.Rows, o.Descents+op.Descents, o.Gets+op.Gets, o.Decoded+op.Decoded
			o.Elapsed += op.Elapsed
			return
		}
	}
	p.Ops = append(p.Ops, op)
}
