// Package flow is the call-graph/effects unit-test corpus: direct
// calls, method calls, interface dispatch satisfied intra-module,
// function values, goroutine spawns and lock effects.
// flow_test.go asserts over the resolved edges and computed summaries;
// there are no findings here.
package flow

import (
	"context"
	"sync"
)

type Ringer interface{ Ring() }

type Bell struct{ n int }

func (b *Bell) Ring() { helper() }

type Horn struct{}

func (Horn) Ring() {}

func helper() {}

// CallIface dispatches through the interface: edges to every
// intra-module implementation.
func CallIface(r Ringer) { r.Ring() }

// CallValue calls through a local function value.
func CallValue() {
	f := helper
	f()
}

// CallMethod is a direct method call.
func CallMethod(b *Bell) { b.Ring() }

type Box struct{ mu sync.Mutex }

// Waiter takes the box lock, then waits for ctx.
func Waiter(ctx context.Context, b *Box) {
	b.Locked()
	<-ctx.Done()
}

// Spawner launches Waiter on a goroutine of its own.
func Spawner(ctx context.Context, b *Box) {
	go Waiter(ctx, b)
}

// Locked acquires the box lock.
func (b *Box) Locked() {
	b.mu.Lock()
	defer b.mu.Unlock()
}

// UseBox reaches the lock only through a call: the lock effect must
// propagate bottom-up.
func UseBox(b *Box) { b.Locked() }

// Recurse is mutually recursive with Recurse2: the SCC fixpoint must
// still converge and carry the lock Recurse2 takes.
func Recurse(b *Box, n int) {
	if n > 0 {
		Recurse2(b, n-1)
	}
}

func Recurse2(b *Box, n int) {
	b.Locked()
	Recurse(b, n)
}

var _ = CallIface
var _ = CallValue
var _ = CallMethod
var _ = Spawner
var _ = UseBox
var _ = Recurse
