// Package netfault is a deterministic fault-injecting transport seam: it is
// to connections what vfstest.FaultFS is to files. A Network wraps
// net.Conn, net.Listener, and dial functions so every replication and
// serving test can run under injected network chaos — severed connections,
// truncated or duplicated or corrupted chunks, delayed delivery, half-open
// connections that silently blackhole one direction, and address-level
// partitions that take a whole node off the network.
//
// Faults are injected on the WRITE side of a connection, where the network
// first touches the bytes. Every Write across the network charges one
// operation against a global counter; a fault can be scripted at an exact
// operation index (the failover sweep enumerates every index, exactly like
// the FaultFS crash sweeps enumerate mutating-operation indexes), or drawn
// from seeded per-kind probabilities (the chaos smoke tests). Both modes
// are deterministic given the seed and the write sequence.
//
// The fault model is TCP-shaped: a healthy connection delivers an ordered,
// uncorrupted byte stream, so injected corruption/duplication/truncation
// models middlebox or NIC damage that a robust protocol must DETECT and
// convert into a reconnect — never into applied garbage. Partitions model
// routing loss: established connections to a partitioned address silently
// blackhole (reads hang until the deadline, writes appear to succeed and
// vanish, exactly how a dropped route feels to an endpoint) and new dials
// time out. Because swallowed bytes never come back, a partitioned
// connection stays dead after Heal — the endpoint must redial, which is the
// posture real clients are in after a partition outlives the TCP
// retransmit window.
package netfault

import (
	"math/rand"
	"net"
	"sync"
	"time"
)

// Kind enumerates the injectable fault kinds.
type Kind int

const (
	// Drop severs the connection (both directions) with an error, like an
	// RST mid-stream.
	Drop Kind = iota
	// Truncate delivers a prefix of the chunk, then severs the connection:
	// the peer sees a torn frame followed by EOF.
	Truncate
	// Duplicate delivers the chunk twice, back to back.
	Duplicate
	// Corrupt flips one byte of the chunk before delivery.
	Corrupt
	// Delay holds the chunk for the fault's Delay duration before
	// delivering it.
	Delay
	// HalfOpen turns the connection half-open from this chunk on: writes
	// from this side report success but deliver nothing, and the peer's
	// reads hang — the classic silently-dead connection a crashed NAT
	// entry leaves behind. Liveness timeouts, not errors, must catch it.
	HalfOpen
	numKinds = iota
)

// String names the kind for stats and sweep tags.
func (k Kind) String() string {
	switch k {
	case Drop:
		return "drop"
	case Truncate:
		return "truncate"
	case Duplicate:
		return "duplicate"
	case Corrupt:
		return "corrupt"
	case Delay:
		return "delay"
	case HalfOpen:
		return "halfopen"
	}
	return "unknown"
}

// Fault is one injected fault: a kind plus its parameters.
type Fault struct {
	Kind Kind
	// Delay is the hold duration for Delay faults.
	Delay time.Duration
}

// Stats counts injected faults by kind, plus the operations observed.
type Stats struct {
	Ops       int64
	Injected  map[string]uint64
	Severed   uint64
	Swallowed uint64
}

// Network is the shared fault plane: all conns, listeners, and dialers
// wrapped by the same Network draw from one operation counter, one fault
// schedule, and one partition set.
type Network struct {
	mu          sync.Mutex
	rng         *rand.Rand
	ops         int64
	script      map[int64]Fault
	rates       [numKinds]float64
	delay       time.Duration // delay used by rate-drawn Delay faults
	partitioned map[string]bool
	conns       map[*Conn]struct{}

	injected  [numKinds]uint64
	severed   uint64
	swallowed uint64
}

// New returns a Network seeded for deterministic random-mode draws. The
// same seed and write sequence reproduce the same faults.
func New(seed int64) *Network {
	return &Network{
		rng:         rand.New(rand.NewSource(seed)),
		script:      map[int64]Fault{},
		partitioned: map[string]bool{},
		conns:       map[*Conn]struct{}{},
	}
}

// ScriptAt arms fault f at the op-th network write (1-based, counted across
// every connection of this Network). Scripted faults win over rate draws.
func (n *Network) ScriptAt(op int64, f Fault) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.script[op] = f
}

// SetRate sets the per-write probability of kind (0 disables). Rate-drawn
// Delay faults hold chunks for delay (set once via SetDelay).
func (n *Network) SetRate(kind Kind, p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rates[kind] = p
}

// SetDelay sets the hold duration rate-drawn Delay faults use.
func (n *Network) SetDelay(d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.delay = d
}

// Ops returns the number of network writes observed so far; a fault-free
// run of a workload measures the sweep range for ScriptAt.
func (n *Network) Ops() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ops
}

// Stats returns a snapshot of the injection counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	m := make(map[string]uint64, numKinds)
	for k := Kind(0); k < numKinds; k++ {
		if n.injected[k] > 0 {
			m[k.String()] = n.injected[k]
		}
	}
	return Stats{Ops: n.ops, Injected: m, Severed: n.severed, Swallowed: n.swallowed}
}

// Partition takes addr off the network: established connections to it
// blackhole silently (and stay dead after Heal — see the package comment)
// and new dials to it time out.
func (n *Network) Partition(addr string) {
	n.mu.Lock()
	n.partitioned[addr] = true
	var hit []*Conn
	for c := range n.conns {
		if c.peer == addr {
			hit = append(hit, c)
		}
	}
	n.mu.Unlock()
	for _, c := range hit {
		c.blackhole()
	}
}

// Heal re-admits addr: new dials succeed again. Connections blackholed by
// the partition stay dead; endpoints redial.
func (n *Network) Heal(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.partitioned, addr)
}

// SeverAll hard-kills every connection to addr with an error, like the
// peer's host going down with an RST in flight. Unlike Partition, dials are
// still admitted (and will fail at the real listener, or be accepted if the
// node is actually alive).
func (n *Network) SeverAll(addr string) {
	n.mu.Lock()
	var hit []*Conn
	for c := range n.conns {
		if c.peer == addr {
			hit = append(hit, c)
		}
	}
	n.mu.Unlock()
	for _, c := range hit {
		c.sever()
	}
}

func (n *Network) isPartitioned(addr string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.partitioned[addr]
}

// nextFault charges one write op and returns the fault to inject, if any.
func (n *Network) nextFault() (Fault, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.ops++
	if f, ok := n.script[n.ops]; ok {
		n.injected[f.Kind]++
		return f, true
	}
	for k := Kind(0); k < numKinds; k++ {
		if n.rates[k] > 0 && n.rng.Float64() < n.rates[k] {
			n.injected[k]++
			f := Fault{Kind: k}
			if k == Delay {
				f.Delay = n.delay
			}
			return f, true
		}
	}
	return Fault{}, false
}

// corruptByte picks the byte index to flip, deterministically from the rng.
func (n *Network) corruptByte(chunkLen int) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	if chunkLen <= 0 {
		return 0
	}
	return n.rng.Intn(chunkLen)
}

func (n *Network) register(c *Conn) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.conns[c] = struct{}{}
}

func (n *Network) unregister(c *Conn) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.conns, c)
}

func (n *Network) noteSever() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.severed++
}

func (n *Network) noteSwallow() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.swallowed++
}

// Dialer wraps base (nil means net.Dial "tcp") so every dialed connection
// runs under this Network's faults; partitioned addresses time out
// immediately instead of after a real TCP timeout, which keeps sweeps fast
// and deterministic.
func (n *Network) Dialer(base func(addr string) (net.Conn, error)) func(addr string) (net.Conn, error) {
	if base == nil {
		base = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	return func(addr string) (net.Conn, error) {
		if n.isPartitioned(addr) {
			return nil, &net.OpError{Op: "dial", Net: "tcp", Err: timeoutError{}}
		}
		inner, err := base(addr)
		if err != nil {
			return nil, err
		}
		return n.Wrap(inner, addr), nil
	}
}

// Listen opens a TCP listener on addr and wraps it so accepted connections
// run under this Network's faults, labelled with the listener's address —
// Partition(bound) therefore kills a server's inbound connections too, not
// just its clients' outbound ones.
func (n *Network) Listen(addr string) (net.Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return n.WrapListener(l), nil
}

// WrapListener wraps an existing listener (see Listen).
func (n *Network) WrapListener(l net.Listener) net.Listener {
	return &listener{Listener: l, nw: n, addr: l.Addr().String()}
}

type listener struct {
	net.Listener
	nw   *Network
	addr string
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.nw.Wrap(c, l.addr), nil
}

// timeoutError is the net.Error partitioned dials and blackholed reads
// return: a timeout, so retry classifiers treat it like the real thing.
type timeoutError struct{}

func (timeoutError) Error() string   { return "netfault: i/o timeout (partitioned)" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }
