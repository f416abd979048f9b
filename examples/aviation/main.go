// Aviation: the Fig 2 temporal-path example. An aviation network's flights
// are relationships created at their departure and deleted at their arrival,
// so each one's validity interval [departure, arrival) carries the times. The
// flights are read off the store's diff of the whole history (algo.Hops), and
// the earliest-arrival and latest-departure paths between airports are
// computed with a single scan over the time-ordered hops rather than joins
// across snapshots.
//
// Run with: go run ./examples/aviation
package main

import (
	"cmp"
	"fmt"
	"log"
	"os"
	"slices"

	"aion/internal/aion"
	"aion/internal/algo"
	"aion/internal/model"
)

func main() {
	dir, err := os.MkdirTemp("", "aion-aviation-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	db, err := aion.Open(aion.Options{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Fig 2's network: airports 0..4; the orange earliest-arrival path
	// 0 -> 4 -> 3 -> 1 and the blue latest-departure alternative via 2.
	var us []model.Update
	for i := 0; i < 5; i++ {
		us = append(us, model.AddNode(0, model.NodeID(i), []string{"Airport"},
			model.Properties{"code": model.StringValue(fmt.Sprintf("AP%d", i))}))
	}
	type flight struct {
		id       model.RelID
		src, tgt model.NodeID
		dep, arr model.Timestamp
	}
	flights := []flight{
		{0, 0, 4, 0, 2},   // AP0 -> AP4, dep 0 arr 2
		{1, 0, 2, 0, 4},   // AP0 -> AP2, dep 0 arr 4
		{2, 4, 3, 2, 3},   // AP4 -> AP3, dep 2 arr 3
		{3, 2, 3, 4, 8},   // AP2 -> AP3, dep 4 arr 8
		{4, 3, 1, 5, 7},   // AP3 -> AP1, dep 5 arr 7
		{5, 3, 1, 10, 13}, // AP3 -> AP1, dep 10 arr 13
	}
	for _, f := range flights {
		us = append(us, model.AddRel(f.dep, f.id, f.src, f.tgt, "FLIGHT", nil),
			model.DeleteRel(f.arr, f.id, f.src, f.tgt))
	}
	// Commit in event-time order (adds at departure, deletes at arrival).
	slices.SortStableFunc(us, func(a, b model.Update) int { return cmp.Compare(a.TS, b.TS) })
	if err := db.ApplyBatch(us); err != nil {
		log.Fatal(err)
	}
	diff, err := db.GetDiff(0, 14)
	if err != nil {
		log.Fatal(err)
	}
	hops := algo.Hops(diff)

	// Earliest arrival from AP0 starting at t=0.
	arr, prev := algo.EarliestArrival(hops, 0, 0)
	fmt.Println("earliest arrivals from AP0 (start t=0):")
	for id := model.NodeID(0); id < 5; id++ {
		if t, ok := arr[id]; ok {
			fmt.Printf("  AP%d at t=%d\n", id, t)
		} else {
			fmt.Printf("  AP%d unreachable\n", id)
		}
	}
	path := algo.ReconstructForward(prev, 0, 1)
	fmt.Println("earliest-arrival path AP0 -> AP1:")
	for _, hop := range path {
		fmt.Printf("  flight %d: AP%d -(dep %d, arr %d)-> AP%d\n",
			hop.Rel, hop.From, hop.Departure, hop.Arrival, hop.To)
	}

	// Latest departure to still reach AP1 by t=13.
	dep, next := algo.LatestDeparture(hops, 1, 13)
	fmt.Println("latest departures to reach AP1 by t=13:")
	for id := model.NodeID(0); id < 5; id++ {
		if t, ok := dep[id]; ok {
			fmt.Printf("  AP%d leave by t=%d\n", id, t)
		}
	}
	back := algo.ReconstructBackward(next, 0, 1)
	fmt.Println("latest-departure path AP0 -> AP1:")
	for _, hop := range back {
		fmt.Printf("  flight %d: AP%d -(dep %d, arr %d)-> AP%d\n",
			hop.Rel, hop.From, hop.Departure, hop.Arrival, hop.To)
	}
}
