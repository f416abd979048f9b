// Command aion-server runs a host graph database with Aion attached and
// serves temporal Cypher over the Bolt-like protocol (Sec 6.7).
//
// Usage:
//
//	aion-server -addr 127.0.0.1:7687 -dir /var/lib/aion
//
// Run a read replica by pointing it at a primary; it tails the primary's
// WAL and serves historical reads at or below its replicated watermark:
//
//	aion-server -addr 127.0.0.1:7688 -dir /var/lib/aion-r1 -replica-of 127.0.0.1:7687
//
// Connect with cmd/aion-shell or the internal/bolt client.
//
// With -debug-addr (off by default; bind it to loopback) the server also
// answers HTTP there: /metrics is the system's stats registry as one JSON
// object, a key per component (the stores' Stats, the planner, the Cypher
// statement cache, the server's admission counters, replication); /debug/pprof/
// is net/http/pprof — `go tool pprof http://ADDR/debug/pprof/heap` is the
// running store's heap by owner — and /debug/vars is expvar's memstats.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"aion/internal/bolt"
	"aion/internal/cypher"
	"aion/internal/model"
	"aion/internal/replica"
	"aion/internal/system"
	"aion/internal/vfs"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:7687", "listen address")
		dir           = flag.String("dir", "", "storage directory (default: temp)")
		queryTimeout  = flag.Duration("query-timeout", 30*time.Second, "default per-query deadline (0 disables)")
		maxConcurrent = flag.Int("max-concurrent", 64, "concurrent query limit; excess queries are shed (0 = unbounded)")
		drainTimeout  = flag.Duration("drain-timeout", 5*time.Second, "how long shutdown waits for in-flight queries")
		syncCommits   = flag.Bool("sync-commits", true, "fsync the transaction log on every commit (required for replication: only durable bytes are shipped)")
		replicaOf     = flag.String("replica-of", "", "primary address to replicate from; makes this node a read-only follower")
		staleness     = flag.Int64("staleness-bound", 1000, "max commits a replica may lag before latest reads are rejected (0 = no bound)")
		disconnGrace  = flag.Duration("disconnect-grace", 5*time.Second, "max heartbeat silence before a replica rejects latest reads (0 disables)")
		debugAddr     = flag.String("debug-addr", "", "serve /metrics (the stats registry), /debug/pprof/ and /debug/vars over HTTP on this address; empty disables")
	)
	flag.Parse()

	opts := system.Options{Dir: *dir, SyncCommits: *syncCommits, Replica: *replicaOf != ""}
	if *dir == "" {
		d, err := vfs.MkdirTemp("", "aion-server-*")
		if err != nil {
			fail(err)
		}
		opts.Dir = d
		fmt.Println("storage:", d)
	}
	t0 := time.Now()
	sys, err := system.Open(opts)
	if err != nil {
		fail(err)
	}
	defer sys.Close()
	opened := time.Since(t0).Round(time.Millisecond)

	srvOpts := bolt.Options{
		QueryTimeout:  *queryTimeout,
		MaxConcurrent: *maxConcurrent,
		DrainTimeout:  *drainTimeout,
	}

	// Every node serves REPLICATE streams: after a PROMOTE the ex-follower
	// is the shipping primary, and the Source refuses streams (FailFenced)
	// while the node is not primary, so running it everywhere is safe.
	srvOpts.ReplicationHandler = replica.NewSource(sys).ServeConn

	var follower *replica.Follower
	var applier *replica.Applier
	if *replicaOf != "" {
		// Follower: reject writes and above-watermark reads at the gate,
		// and tail the primary's WAL in the background.
		applier = replica.NewApplier(sys)
		applier.StalenessBound = model.Timestamp(*staleness)
		applier.DisconnectGrace = *disconnGrace
		srvOpts.ReadGate = applier.Gate
		follower = &replica.Follower{Applier: applier, Addr: *replicaOf}
	}
	// The admin surface: PROMOTE/STATUS verbs and epoch gossip. Promotion
	// stops the follower stream before flipping the role.
	node := replica.NewNode(sys, applier)
	srvOpts.Admin = node

	srv := bolt.NewServer(cypher.NewEngine(sys), srvOpts)
	bound, err := srv.Listen(*addr)
	if err != nil {
		fail(err)
	}
	if *debugAddr != "" {
		dbg, at, err := serveDebug(*debugAddr, sys)
		if err != nil {
			fail(err)
		}
		defer dbg.Close()
		fmt.Println("debug endpoints on http://" + at + "/metrics, /debug/pprof/ and /debug/vars")
	}
	role := "primary"
	if *replicaOf != "" {
		role = "replica of " + *replicaOf
	}
	fmt.Printf("aion-server (%s) listening on %s; store opened in %v, lineage caught up %d updates\n",
		role, bound, opened, sys.Aion.LineageStore().Stats().CaughtUp)

	ctx, cancel := context.WithCancel(context.Background())
	var followerExit <-chan struct{}
	if follower != nil {
		node.StartFollower(ctx, follower)
		followerExit = node.FollowerDone()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
serve:
	for {
		select {
		case <-sig:
			fmt.Println("shutting down")
			break serve
		case <-followerExit: // nil channel on a primary: blocks forever
			followerExit = nil
			if err := node.FollowerErr(); err != nil {
				// Divergence fail-stop: this node's log is not a prefix of
				// the primary's. Operator intervention (reseed) required.
				fmt.Fprintln(os.Stderr, "aion-server: replication fail-stop:", err)
				break serve
			}
			// Clean stop: a PROMOTE flipped this node writable. The stream
			// stops BEFORE the role flips, so briefly wait for the settled
			// status before logging it. Keep serving either way.
			st := node.NodeStatus()
			for wait := 0; st.Role == "replica" && wait < 20; wait++ {
				time.Sleep(50 * time.Millisecond)
				st = node.NodeStatus()
			}
			fmt.Printf("promoted: now %s at epoch %d\n", st.Role, st.Epoch)
		}
	}
	cancel()
	srv.Close()
	m := srv.Metrics()
	fmt.Printf("served %d queries (%d shed, %d timed out, %d panics contained, %d gate-rejected)\n",
		m.Queries, m.Shed, m.Timeouts, m.Panics, m.Rejected)
	sys.Metrics.Do(func(kv expvar.KeyValue) {
		if strings.HasPrefix(kv.Key, "replica.") {
			fmt.Printf("%s: %s\n", kv.Key, kv.Value)
		}
	})
}

// serveDebug starts the HTTP debug listener on a mux of its own (nothing
// else in the process serves http.DefaultServeMux, and nothing should start
// to by accident): /metrics is sys.Metrics, evaluated at each request,
// /debug/vars expvar's process-wide page (memstats, cmdline), and pprof.
func serveDebug(addr string, sys *system.System) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("debug listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintln(w, sys.Metrics.String())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	dbg := &http.Server{Handler: mux}
	go dbg.Serve(ln) // returns once main's deferred dbg.Close closes ln
	return dbg, ln.Addr().String(), nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "aion-server:", err)
	os.Exit(1)
}
