package clock_test

import (
	"context"
	"testing"
	"time"

	"aion/internal/clock"
	"aion/internal/testkit/clocktest"
)

func TestRealSleepCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := (clock.Real{}).Sleep(ctx, time.Hour); err == nil {
		t.Fatal("cancelled sleep returned nil")
	}
	if err := (clock.Real{}).Sleep(context.Background(), 0); err != nil {
		t.Fatalf("zero sleep: %v", err)
	}
}

func TestOrReal(t *testing.T) {
	if _, ok := clock.OrReal(nil).(clock.Real); !ok {
		t.Fatal("OrReal(nil) is not the wall clock")
	}
	f := clocktest.NewFake(time.Unix(0, 0))
	if clock.OrReal(f) != clock.Clock(f) {
		t.Fatal("OrReal did not pass through the given clock")
	}
}

func TestFakeAdvanceReleasesSleepers(t *testing.T) {
	f := clocktest.NewFake(time.Unix(1000, 0))
	done := make(chan error, 1)
	go func() { done <- f.Sleep(context.Background(), 5*time.Second) }()
	for f.Sleepers() == 0 {
		time.Sleep(time.Millisecond)
	}
	f.Advance(4 * time.Second)
	select {
	case <-done:
		t.Fatal("sleep woke before its deadline")
	default:
	}
	f.Advance(2 * time.Second)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("sleep: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sleep never woke after advance past deadline")
	}
	if got := f.Now(); got != time.Unix(1006, 0) {
		t.Fatalf("now = %v, want 1006s", got)
	}
}

func TestFakeSleepCancelDropsWaiter(t *testing.T) {
	f := clocktest.NewFake(time.Unix(0, 0))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.Sleep(ctx, time.Hour) }()
	for f.Sleepers() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled fake sleep returned nil")
	}
	for i := 0; i < 1000 && f.Sleepers() != 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if got := f.Sleepers(); got != 0 {
		t.Fatalf("%d waiters leaked after cancel", got)
	}
}

func TestFakeAfterImmediate(t *testing.T) {
	f := clocktest.NewFake(time.Unix(0, 0))
	select {
	case <-f.After(0):
	default:
		t.Fatal("After(0) did not fire immediately")
	}
}
