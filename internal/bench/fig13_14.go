package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"aion/internal/aion"
	"aion/internal/bolt"
	"aion/internal/cypher"
	"aion/internal/datagen"
	"aion/internal/model"
	"aion/internal/system"
)

// startBoltSystem loads a dataset into a host+Aion system (snapshots every
// eighth of the load) and serves it over Bolt, returning the address and a
// shutdown func.
func startBoltSystem(c Config, name, dir string) (*datagen.Dataset, string, func(), error) {
	ds := c.genDataset(name, datagen.Options{})
	sys, _, err := loadHosted(system.Options{Dir: dir,
		Aion: aion.Options{SnapshotEveryOps: len(ds.Updates)/8 + 1}}, ds, 2000, 1)
	if err != nil {
		return nil, "", nil, err
	}
	// Take the post-load snapshot now so the policy does not fire (and
	// steal CPU from the background worker) in the middle of a short
	// measurement pass.
	if err = sys.Aion.TimeStore().CreateSnapshot(); err != nil {
		sys.Close()
		return nil, "", nil, err
	}
	srv := bolt.NewServer(cypher.NewEngine(sys))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		sys.Close()
		return nil, "", nil, err
	}
	return ds, addr, func() { srv.Close(); sys.Close() }, nil
}

// RunFig13 regenerates Fig 13: client threads submit read and write
// transactions as temporal Cypher over Bolt, in read-only, 10 %-write and
// 20 %-write mixes. Reads retrieve temporal entities at arbitrary time points;
// writes create or update nodes.
func RunFig13(c Config, dir func(string) string, clients, opsPerClient int) (Table, error) {
	c.Defaults()
	if clients <= 0 {
		clients = 8
	}
	if opsPerClient <= 0 {
		opsPerClient = 100
	}
	t := &table{header: []string{"Dataset", "read-only (q/s)", "10% writes (q/s)", "20% writes (q/s)"}}
	for _, name := range c.Datasets {
		ds, addr, shutdown, err := startBoltSystem(c, name, dir(name))
		if err != nil {
			return Table{}, err
		}
		mix := func(writePct int) side {
			return timed(func() error { return boltMixedWorkload(ds, addr, clients, opsPerClient, writePct, c.Seed) })
		}
		d, err := measure(mix(0), mix(10), mix(20))
		shutdown()
		if err != nil {
			return Table{}, err
		}
		total := clients * opsPerClient
		t.add(name, f1(opsPerSec(total, d[0])), f1(opsPerSec(total, d[1])), f1(opsPerSec(total, d[2])))
	}
	return c.emit(t, "Fig 13: transactions using Bolt (32-thread analogue)"), nil
}

func boltMixedWorkload(ds *datagen.Dataset, addr string, clients, opsPerClient, writePct int, seed int64) error {
	var wg sync.WaitGroup
	var failed atomic.Int64
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := bolt.Dial(addr)
			if err != nil {
				failed.Add(1)
				return
			}
			defer cl.Close()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for i := 0; i < opsPerClient; i++ {
				if rng.Intn(100) < writePct {
					// Write: create a node or update a property.
					if rng.Intn(2) == 0 {
						_, _, _, err = cl.Run(`CREATE (n:Client {w: $w})`,
							map[string]model.Value{"w": model.IntValue(int64(w))})
					} else {
						id := rng.Int63n(int64(ds.Spec.Nodes))
						_, _, _, err = cl.Run(
							`MATCH (n) WHERE id(n) = $id SET n.touched = $i`,
							map[string]model.Value{
								"id": model.IntValue(id),
								"i":  model.IntValue(int64(i)),
							})
					}
				} else {
					// Read: temporal entity at an arbitrary time point.
					id := rng.Int63n(int64(ds.Spec.Nodes))
					ts := rng.Int63n(int64(ds.MaxTS)) + 1
					_, _, _, err = cl.Run(
						`USE GDB FOR SYSTEM_TIME AS OF $ts MATCH (n) WHERE id(n) = $id RETURN n`,
						map[string]model.Value{
							"ts": model.IntValue(ts),
							"id": model.IntValue(id),
						})
				}
				if err != nil {
					failed.Add(1)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("bench: %d bolt clients failed", n)
	}
	return nil
}

// RunFig14 regenerates Fig 14: the Fig 12 workloads executed through CALL
// aion.incremental.* procedures over Bolt, compared against per-snapshot
// recomputation through individual procedure calls (the repetitive query
// compilation and scheduling the paper removes). Both sides are repeated, as
// Fig 12's are: an incremental call on the smallest dataset takes ~0.2 ms.
func RunFig14(c Config, dir func(string) string, snapshotCounts []int) (Table, error) {
	c.Defaults()
	if len(snapshotCounts) == 0 {
		snapshotCounts = []int{10, 100}
	}
	procs := map[string]string{
		"AVG": `CALL aion.incremental.avg('w', %d, %d, %d)`,
		"BFS": `CALL aion.incremental.bfs(0, %d, %d, %d)`,
	}
	t := &table{header: []string{"Algorithm(#snapshots)", "Dataset", "incremental (ms)", "recompute (ms)", "speedup (x)"}}
	for _, name := range c.Datasets {
		ds, addr, shutdown, err := startBoltSystem(c, name, dir(name))
		if err != nil {
			return Table{}, err
		}
		cl, err := bolt.Dial(addr)
		if err != nil {
			shutdown()
			return Table{}, err
		}
		maxTS := int64(ds.MaxTS)
		half := maxTS / 2
		for _, snaps := range snapshotCounts {
			step := max((maxTS-half)/int64(snaps), 1)
			for _, alg := range []string{"AVG", "BFS"} {
				call := func(from, to, step int64) error {
					_, _, _, err := cl.Run(fmt.Sprintf(procs[alg], from, to, step), nil)
					return err
				}
				// Recompute: one full procedure call per snapshot (a step
				// spanning the whole window, so nothing is reused).
				d, err := measure(repeated(func() error { return call(half, maxTS, step) }), repeated(func() error {
					for ts := half; ts <= maxTS; ts += step {
						if err := call(ts, ts, 1); err != nil {
							return err
						}
					}
					return nil
				}))
				if err != nil {
					cl.Close()
					shutdown()
					return Table{}, err
				}
				t.add(fmt.Sprintf("%s(%d)", alg, snaps), name, ms(d[0]), ms(d[1]), f1(d[1].Seconds()/d[0].Seconds()))
			}
		}
		cl.Close()
		shutdown()
	}
	return c.emit(t, "Fig 14: incremental speedup with procedures over Bolt"), nil
}
