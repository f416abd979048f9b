// Package gradoop re-implements the storage and retrieval strategy of
// Gradoop (Rost et al.), the model-based distributed baseline of the
// paper's evaluation: temporal graphs are node and relationship tables with
// validity columns (the TPGM model over Flink dataflows). Every snapshot
// retrieval is a parallel scan-and-filter over both tables followed by a
// verification join that removes dangling relationships — the step the
// paper measures at ~80 % of Gradoop's runtime. Point queries degrade to a
// full table scan, which is why the paper omits Gradoop from Fig 6.
package gradoop

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"aion/internal/memgraph"
	"aion/internal/model"
)

// Rows are stored serialized, CSV-style, exactly as Gradoop's tables are
// backed by CSV files: every scan re-parses the row, which is a major part
// of the model-based approach's cost.

// nodeRow is one row of the temporal node table (one row per version).
type nodeRow struct {
	id     model.NodeID
	valid  model.Interval
	labels []string
	props  model.Properties
}

// relRow is one row of the temporal relationship table.
type relRow struct {
	id       model.RelID
	src, tgt model.NodeID
	valid    model.Interval
	label    string
	props    model.Properties
}

// encodeNodeRow serializes a node row as a CSV line:
// id,start,end,label|label,key=value|key=value
func encodeNodeRow(r nodeRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d,%d,%d,", r.id, r.valid.Start, r.valid.End)
	sb.WriteString(strings.Join(r.labels, "|"))
	sb.WriteByte(',')
	sb.WriteString(encodeProps(r.props))
	return sb.String()
}

func encodeRelRow(r relRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d,%d,%d,%d,%d,%s,", r.id, r.src, r.tgt, r.valid.Start, r.valid.End, r.label)
	sb.WriteString(encodeProps(r.props))
	return sb.String()
}

func encodeProps(p model.Properties) string {
	parts := make([]string, 0, len(p))
	for k, v := range p {
		switch v.Kind() {
		case model.KindInt:
			parts = append(parts, k+"=i"+strconv.FormatInt(v.Int(), 10))
		case model.KindFloat:
			parts = append(parts, k+"=f"+strconv.FormatFloat(v.Float(), 'g', -1, 64))
		case model.KindString:
			parts = append(parts, k+"=s"+v.Str())
		case model.KindBool:
			parts = append(parts, k+"=b"+strconv.FormatBool(v.Bool()))
		}
	}
	return strings.Join(parts, "|")
}

func decodeProps(s string) model.Properties {
	if s == "" {
		return nil
	}
	props := model.Properties{}
	for _, part := range strings.Split(s, "|") {
		eq := strings.IndexByte(part, '=')
		if eq < 0 || eq+1 >= len(part) {
			continue
		}
		k, tagged := part[:eq], part[eq+1:]
		switch tagged[0] {
		case 'i':
			n, _ := strconv.ParseInt(tagged[1:], 10, 64)
			props[k] = model.IntValue(n)
		case 'f':
			f, _ := strconv.ParseFloat(tagged[1:], 64)
			props[k] = model.FloatValue(f)
		case 's':
			props[k] = model.StringValue(tagged[1:])
		case 'b':
			props[k] = model.BoolValue(tagged[1:] == "true")
		}
	}
	return props
}

func decodeNodeRow(line string) nodeRow {
	f := strings.SplitN(line, ",", 5)
	id, _ := strconv.ParseInt(f[0], 10, 64)
	start, _ := strconv.ParseInt(f[1], 10, 64)
	end, _ := strconv.ParseInt(f[2], 10, 64)
	var labels []string
	if f[3] != "" {
		labels = strings.Split(f[3], "|")
	}
	return nodeRow{
		id:     model.NodeID(id),
		valid:  model.Interval{Start: model.Timestamp(start), End: model.Timestamp(end)},
		labels: labels,
		props:  decodeProps(f[4]),
	}
}

func decodeRelRow(line string) relRow {
	f := strings.SplitN(line, ",", 7)
	id, _ := strconv.ParseInt(f[0], 10, 64)
	src, _ := strconv.ParseInt(f[1], 10, 64)
	tgt, _ := strconv.ParseInt(f[2], 10, 64)
	start, _ := strconv.ParseInt(f[3], 10, 64)
	end, _ := strconv.ParseInt(f[4], 10, 64)
	return relRow{
		id: model.RelID(id), src: model.NodeID(src), tgt: model.NodeID(tgt),
		valid: model.Interval{Start: model.Timestamp(start), End: model.Timestamp(end)},
		label: f[5],
		props: decodeProps(f[6]),
	}
}

// Engine is a Gradoop-style scan-based temporal engine. Rows live as
// serialized CSV lines (the tables are CSV-backed in the original), so
// every scan pays the parse cost.
type Engine struct {
	nodes       []string
	rels        []string
	openNodes   map[model.NodeID]int // index of the open version row
	openRels    map[model.RelID]int
	Parallelism int // scan/join workers; defaults to GOMAXPROCS
}

// New creates an empty engine.
func New() *Engine {
	return &Engine{
		openNodes:   make(map[model.NodeID]int),
		openRels:    make(map[model.RelID]int),
		Parallelism: runtime.GOMAXPROCS(0),
	}
}

// Load appends one update to the tables, closing and opening version rows.
func (e *Engine) Load(u model.Update) {
	switch u.Kind {
	case model.OpAddNode:
		e.openNodes[u.NodeID] = len(e.nodes)
		e.nodes = append(e.nodes, encodeNodeRow(nodeRow{id: u.NodeID,
			valid:  model.Interval{Start: u.TS, End: model.TSInfinity},
			labels: u.AddLabels, props: u.SetProps}))
	case model.OpDeleteNode:
		if i, ok := e.openNodes[u.NodeID]; ok {
			row := decodeNodeRow(e.nodes[i])
			row.valid.End = u.TS
			e.nodes[i] = encodeNodeRow(row)
			delete(e.openNodes, u.NodeID)
		}
	case model.OpUpdateNode:
		if i, ok := e.openNodes[u.NodeID]; ok {
			prev := decodeNodeRow(e.nodes[i])
			prev.valid.End = u.TS
			e.nodes[i] = encodeNodeRow(prev)
			n := &model.Node{ID: u.NodeID, Labels: prev.labels, Props: prev.props.Clone()}
			u.ApplyToNode(n)
			e.openNodes[u.NodeID] = len(e.nodes)
			e.nodes = append(e.nodes, encodeNodeRow(nodeRow{id: u.NodeID,
				valid:  model.Interval{Start: u.TS, End: model.TSInfinity},
				labels: n.Labels, props: n.Props}))
		}
	case model.OpAddRel:
		e.openRels[u.RelID] = len(e.rels)
		e.rels = append(e.rels, encodeRelRow(relRow{id: u.RelID, src: u.Src, tgt: u.Tgt,
			valid: model.Interval{Start: u.TS, End: model.TSInfinity},
			label: u.RelLabel, props: u.SetProps}))
	case model.OpDeleteRel:
		if i, ok := e.openRels[u.RelID]; ok {
			row := decodeRelRow(e.rels[i])
			row.valid.End = u.TS
			e.rels[i] = encodeRelRow(row)
			delete(e.openRels, u.RelID)
		}
	case model.OpUpdateRel:
		if i, ok := e.openRels[u.RelID]; ok {
			prev := decodeRelRow(e.rels[i])
			prev.valid.End = u.TS
			e.rels[i] = encodeRelRow(prev)
			r := &model.Rel{ID: u.RelID, Src: prev.src, Tgt: prev.tgt, Label: prev.label, Props: prev.props.Clone()}
			u.ApplyToRel(r)
			e.openRels[u.RelID] = len(e.rels)
			e.rels = append(e.rels, encodeRelRow(relRow{id: u.RelID, src: r.Src, tgt: r.Tgt,
				valid: model.Interval{Start: u.TS, End: model.TSInfinity},
				label: r.Label, props: r.Props}))
		}
	}
}

// LoadAll appends a batch of updates.
func (e *Engine) LoadAll(us []model.Update) {
	for _, u := range us {
		e.Load(u)
	}
}

// Snapshot materializes the graph at ts: a parallel scan-and-filter over
// both tables, then the verification join that removes relationships whose
// endpoints are not part of the produced subgraph.
func (e *Engine) Snapshot(ts model.Timestamp) *memgraph.Graph {
	workers := e.Parallelism
	if workers < 1 {
		workers = 1
	}
	// Parallel scan+filter over the node table.
	liveNodes := make([]map[model.NodeID]*nodeRow, workers)
	var wg sync.WaitGroup
	chunk := (len(e.nodes) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > len(e.nodes) {
			hi = len(e.nodes)
		}
		if lo >= hi {
			liveNodes[w] = map[model.NodeID]*nodeRow{}
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			part := make(map[model.NodeID]*nodeRow)
			for i := lo; i < hi; i++ {
				row := decodeNodeRow(e.nodes[i])
				if row.valid.Contains(ts) {
					part[row.id] = &row
				}
			}
			liveNodes[w] = part
		}(w, lo, hi)
	}
	wg.Wait()
	nodeSet := make(map[model.NodeID]*nodeRow)
	for _, part := range liveNodes {
		for id, row := range part {
			nodeSet[id] = row
		}
	}

	// Parallel scan+filter over the relationship table.
	liveRels := make([][]*relRow, workers)
	chunk = (len(e.rels) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > len(e.rels) {
			hi = len(e.rels)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			var part []*relRow
			for i := lo; i < hi; i++ {
				row := decodeRelRow(e.rels[i])
				if row.valid.Contains(ts) {
					part = append(part, &row)
				}
			}
			liveRels[w] = part
		}(w, lo, hi)
	}
	wg.Wait()

	// Verification join: drop dangling relationships (two hash probes per
	// relationship — the dominant cost in the original system).
	verified := make([][]*relRow, workers)
	for w := range liveRels {
		part := liveRels[w]
		if len(part) == 0 {
			continue
		}
		wg.Add(1)
		go func(w int, part []*relRow) {
			defer wg.Done()
			var keep []*relRow
			for _, r := range part {
				if _, ok := nodeSet[r.src]; !ok {
					continue
				}
				if _, ok := nodeSet[r.tgt]; !ok {
					continue
				}
				keep = append(keep, r)
			}
			verified[w] = keep
		}(w, part)
	}
	wg.Wait()

	out := memgraph.New()
	for _, row := range nodeSet {
		_ = out.Apply(model.AddNode(0, row.id, row.labels, row.props))
	}
	for _, part := range verified {
		for _, r := range part {
			_ = out.Apply(model.AddRel(0, r.id, r.src, r.tgt, r.label, r.props))
		}
	}
	out.SetTimestamp(ts)
	return out
}

// GetRelationship returns the relationship version valid at ts via a full
// scan of the relationship table (the model-based point-query cost |U_R|,
// Table 4).
func (e *Engine) GetRelationship(id model.RelID, ts model.Timestamp) *model.Rel {
	for i := range e.rels {
		r := decodeRelRow(e.rels[i])
		if r.id == id && r.valid.Contains(ts) {
			return &model.Rel{ID: r.id, Src: r.src, Tgt: r.tgt, Label: r.label,
				Props: r.props, Valid: r.valid}
		}
	}
	return nil
}
