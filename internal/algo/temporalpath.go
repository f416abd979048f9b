package algo

import (
	"cmp"
	"slices"

	"aion/internal/model"
)

// Temporal path algorithms (Fig 2; Wu et al., "Path problems in temporal
// graphs"). A relationship version's validity interval [τs, τe) is read as
// a departure at τs from Src and an arrival at τe at Tgt (e.g. a flight).
// Both problems are solved as topological-optimum problems with a single
// scan over relationships ordered by time, instead of expensive joins
// across snapshots (TeGraph's one-pass model).

// PathHop is one relationship on a temporal path.
type PathHop struct {
	Rel       model.RelID
	From, To  model.NodeID
	Departure model.Timestamp
	Arrival   model.Timestamp
}

// Hops reads the flights of a diff (a GetDiff answer, in commit order): every
// relationship version that opens inside it — an AddRel or UpdateRel — and
// closes at the next update of its id in it, departing at the one and
// arriving at the other. A version still open at the diff's end has no
// arrival, and one opened before the diff has no departure in it: neither is
// a hop. Hops come in arrival order, ties in commit order.
func Hops(diff []model.Update) []PathHop {
	var hops []PathHop
	open := map[model.RelID]PathHop{}
	for _, u := range diff {
		if u.Kind.IsNodeOp() {
			continue
		}
		if h, ok := open[u.RelID]; ok {
			if h.Departure < u.TS { // a version a commit opens and closes is empty: no hop
				h.Arrival = u.TS
				hops = append(hops, h)
			}
			delete(open, u.RelID)
		}
		if u.Kind != model.OpDeleteRel {
			open[u.RelID] = PathHop{Rel: u.RelID, From: u.Src, To: u.Tgt, Departure: u.TS}
		}
	}
	return hops
}

// EarliestArrival computes, for every node, the earliest time one can
// arrive there when starting from src no earlier than startTime. The scan
// processes hops in departure order; a hop is usable when its departure is
// no earlier than the current earliest arrival at its source. The returned
// map contains only reachable nodes; paths maps each reached node to its
// incoming hop, from which a full path can be reconstructed.
func EarliestArrival(hops []PathHop, src model.NodeID, startTime model.Timestamp) (map[model.NodeID]model.Timestamp, map[model.NodeID]PathHop) {
	hops = slices.Clone(hops)
	slices.SortStableFunc(hops, func(a, b PathHop) int { return cmp.Compare(a.Departure, b.Departure) })
	arr := map[model.NodeID]model.Timestamp{src: startTime}
	prev := map[model.NodeID]PathHop{}
	for _, h := range hops {
		at, ok := arr[h.From]
		if !ok || h.Departure < at {
			continue
		}
		if cur, ok := arr[h.To]; !ok || h.Arrival < cur {
			arr[h.To] = h.Arrival
			prev[h.To] = h
		}
	}
	return arr, prev
}

// LatestDeparture computes, for every node, the latest time one can leave
// it and still reach tgt no later than deadline. The scan processes hops in
// decreasing arrival order; a hop is usable when its arrival is no later
// than the latest departure already known at its target.
func LatestDeparture(hops []PathHop, tgt model.NodeID, deadline model.Timestamp) (map[model.NodeID]model.Timestamp, map[model.NodeID]PathHop) {
	hops = slices.Clone(hops)
	slices.SortStableFunc(hops, func(a, b PathHop) int { return cmp.Compare(b.Arrival, a.Arrival) })
	dep := map[model.NodeID]model.Timestamp{tgt: deadline}
	next := map[model.NodeID]PathHop{}
	for _, h := range hops {
		at, ok := dep[h.To]
		if !ok || h.Arrival > at {
			continue
		}
		if cur, ok := dep[h.From]; !ok || h.Departure > cur {
			dep[h.From] = h.Departure
			next[h.From] = h
		}
	}
	return dep, next
}

// ReconstructForward rebuilds the earliest-arrival path src -> dst from the
// prev map returned by EarliestArrival.
func ReconstructForward(prev map[model.NodeID]PathHop, src, dst model.NodeID) []PathHop {
	var rev []PathHop
	cur := dst
	for cur != src {
		hop, ok := prev[cur]
		if !ok {
			return nil
		}
		rev = append(rev, hop)
		cur = hop.From
	}
	// Reverse in place.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// ReconstructBackward rebuilds the latest-departure path src -> dst from
// the next map returned by LatestDeparture.
func ReconstructBackward(next map[model.NodeID]PathHop, src, dst model.NodeID) []PathHop {
	var hops []PathHop
	cur := src
	for cur != dst {
		hop, ok := next[cur]
		if !ok {
			return nil
		}
		hops = append(hops, hop)
		cur = hop.To
	}
	return hops
}
