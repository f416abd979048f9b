// Package boltcorpus is the ctxloop corpus. Its synthetic import path
// ends in "bolt", a serving-path package: loops in ctx-taking functions
// must reference ctx or sit under a call that receives it.
package boltcorpus

import "context"

// A ctx check before the loop is not enough: the loop itself never
// observes cancellation.
func bad(ctx context.Context, xs []int) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	total := 0
	for _, x := range xs { // want ctxloop
		total += x
	}
	return total, nil
}

func goodStrided(ctx context.Context, xs []int) (int, error) {
	total := 0
	for i, x := range xs {
		if i%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		total += x
	}
	return total, nil
}

func runCtx(ctx context.Context, f func()) {
	if ctx.Err() == nil {
		f()
	}
}

// The closure's loop is exempt: the helper it is handed to received ctx
// and owns the cancellation duty.
func delegated(ctx context.Context, xs []int) {
	runCtx(ctx, func() {
		for range xs {
		}
	})
}

// No ctx parameter, no obligation.
func noCtx(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// Only the outermost loop needs the check: the outer per-iteration check
// bounds the inner loop's staleness already.
func outermostOnly(ctx context.Context, xss [][]int) (int, error) {
	total := 0
	for _, xs := range xss {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		for _, x := range xs {
			total += x
		}
	}
	return total, nil
}

// A nested chain with no check anywhere reports once, on the outer loop.
func nestedBad(ctx context.Context, xss [][]int) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	total := 0
	for _, xs := range xss { // want ctxloop
		for _, x := range xs {
			total += x
		}
	}
	return total, nil
}

func work() {}

// A goroutine literal launched from a ctx-taking function is part of its
// body: a bare spinner in it never observes ctx, and outlives the request,
// the drain and the server.
func spawns(ctx context.Context, queue chan int) {
	go func() {
		for { // want ctxloop
			work()
		}
	}()
	go func() { // clean: selects on ctx.Done
		for {
			select {
			case <-ctx.Done():
				return
			case v := <-queue:
				_ = v
			}
		}
	}()
}
