package algo

import (
	"cmp"
	"slices"
	"testing"

	"aion/internal/model"
)

// aviationHops builds a Fig 2-style aviation network as a diff — five
// airports, and flights created at their departure and deleted at their
// arrival, in commit order — and reads its hops.
func aviationHops() []PathHop {
	var us []model.Update
	for i := 0; i < 5; i++ {
		us = append(us, model.AddNode(0, model.NodeID(i), []string{"Airport"}, nil))
	}
	type flight struct {
		id       model.RelID
		src, tgt model.NodeID
		dep, arr model.Timestamp
	}
	flights := []flight{
		{0, 0, 4, 0, 2},
		{1, 0, 2, 0, 4},
		{2, 4, 3, 2, 3},
		{3, 2, 3, 4, 8},
		{4, 3, 1, 5, 7},
		{5, 3, 1, 10, 13},
	}
	for _, f := range flights {
		us = append(us, model.AddRel(f.dep, f.id, f.src, f.tgt, "FLIGHT", nil), model.DeleteRel(f.arr, f.id, f.src, f.tgt))
	}
	slices.SortStableFunc(us, func(a, b model.Update) int { return cmp.Compare(a.TS, b.TS) })
	return Hops(us)
}

func TestEarliestArrival(t *testing.T) {
	hops := aviationHops()
	arr, prev := EarliestArrival(hops, 0, 0)
	// 0 -(dep 0, arr 2)-> 4 -(dep 2, arr 3)-> 3 -(dep 5, arr 7)-> 1.
	if arr[1] != 7 {
		t.Errorf("earliest arrival at 1 = %d, want 7", arr[1])
	}
	if arr[3] != 3 {
		t.Errorf("earliest arrival at 3 = %d, want 3", arr[3])
	}
	path := ReconstructForward(prev, 0, 1)
	if len(path) != 3 {
		t.Fatalf("path has %d hops, want 3", len(path))
	}
	if path[0].Rel != 0 || path[1].Rel != 2 || path[2].Rel != 4 {
		t.Errorf("path = %+v", path)
	}
	// Starting late misses every flight out of 0 (both depart at 0), so
	// node 1 becomes unreachable.
	arr2, _ := EarliestArrival(hops, 0, 1)
	if v, ok := arr2[1]; ok {
		t.Errorf("late start must make 1 unreachable, got arrival %d", v)
	}
}

func TestLatestDeparture(t *testing.T) {
	hops := aviationHops()
	dep, next := LatestDeparture(hops, 1, 13)
	// Latest chain into 1 by 13: 3 -(dep 10)-> 1; into 3: 2 -(dep 4, arr
	// 8)-> 3; into 2: 0 -(dep 0)-> 2. So from 0 the latest departure is 0
	// via node 2.
	if dep[3] != 10 {
		t.Errorf("latest departure from 3 = %d, want 10", dep[3])
	}
	if dep[0] != 0 {
		t.Errorf("latest departure from 0 = %d, want 0", dep[0])
	}
	path := ReconstructBackward(next, 0, 1)
	if len(path) == 0 {
		t.Fatal("no backward path")
	}
	if path[0].To != 2 && path[0].To != 4 {
		t.Errorf("first hop to %d", path[0].To)
	}
	// Tight deadline cuts everything off.
	dep2, _ := LatestDeparture(hops, 1, 5)
	if _, ok := dep2[0]; ok {
		t.Error("no path can arrive at 1 by 5")
	}
}

func TestTemporalPathOpenEdgesIgnored(t *testing.T) {
	hops := Hops([]model.Update{
		model.AddNode(0, 0, nil, nil),
		model.AddNode(0, 1, nil, nil),
		model.AddRel(1, 0, 0, 1, "F", nil), // never closed: no arrival
	})
	if len(hops) != 0 {
		t.Errorf("an open relationship reads as the hops %+v", hops)
	}
	arr, _ := EarliestArrival(hops, 0, 0)
	if _, ok := arr[1]; ok {
		t.Error("open-ended relationship must not be traversable")
	}
}

// A relationship created at 3, updated at 4 and deleted at 8 flies [3, 4)
// and [4, 8). A diff holds a version only when it holds the update that
// opened it: one from 4 on holds the second, one from 5 on neither.
func TestHopsOpenInsideTheDiff(t *testing.T) {
	us := []model.Update{
		model.AddNode(1, 0, nil, nil),
		model.AddNode(1, 1, nil, nil),
		model.AddRel(3, 0, 0, 1, "F", nil),
		model.UpdateRel(4, 0, 0, 1, model.Properties{"gate": model.IntValue(4)}, nil),
		model.UpdateNode(6, 1, []string{"Hub"}, nil, nil, nil),
		model.DeleteRel(8, 0, 0, 1),
	}
	hop := func(dep, arr model.Timestamp) PathHop {
		return PathHop{Rel: 0, From: 0, To: 1, Departure: dep, Arrival: arr}
	}
	for _, w := range []struct {
		from  model.Timestamp
		want  []PathHop
		leave model.Timestamp // the latest departure from 0 to reach 1 by 9; -1 for none
	}{
		{3, []PathHop{hop(3, 4), hop(4, 8)}, 4},
		{4, []PathHop{hop(4, 8)}, 4},
		{5, nil, -1},
	} {
		var diff []model.Update
		for _, u := range us {
			if w.from <= u.TS && u.TS < 9 {
				diff = append(diff, u)
			}
		}
		hops := Hops(diff)
		if !slices.Equal(hops, w.want) {
			t.Errorf("hops of [%d, 9) = %+v, want %+v", w.from, hops, w.want)
		}
		dep, _ := LatestDeparture(hops, 1, 9)
		if at, ok := dep[0]; ok != (w.leave >= 0) || ok && at != w.leave {
			t.Errorf("over [%d, 9) the latest departure from 0 is %d (reachable %v), want %d", w.from, at, ok, w.leave)
		}
	}
}
