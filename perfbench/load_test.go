package main

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

func TestPoissonScheduleDeterministic(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(3)), 50, 500)
	b := poissonSchedule(rand.New(rand.NewSource(3)), 50, 500)
	if len(a) != 500 {
		t.Fatalf("got %d arrivals, want 500", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs between runs of one seed", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrival %d goes back in time", i)
		}
	}
	// 500 arrivals at 50/s take about 10 s.
	if d := a[len(a)-1]; d < 8*time.Second || d > 12*time.Second {
		t.Errorf("500 arrivals at 50/s span %v", d)
	}
}

// With one slot and 40 ms operations due 1 ms apart, the later operations
// are sent late; their latency counts from when they were due, so it
// includes that lateness on top of the service time.
func TestOpenLoopTimesFromDueAndReportsLateness(t *testing.T) {
	const service = 40 * time.Millisecond
	sched := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	ss := openLoop(context.Background(), sched, make(chan struct{}, 1), func(context.Context, int) error {
		time.Sleep(service)
		return nil
	})
	for i, s := range ss {
		if s.err != nil {
			t.Fatalf("op %d: %v", i, s.err)
		}
		if s.due != sched[i] {
			t.Errorf("op %d due %v, want %v", i, s.due, sched[i])
		}
		if s.done-s.due != time.Duration(s.latencyMS()*float64(time.Millisecond)) {
			t.Errorf("op %d latency is not done-due", i)
		}
		if s.latencyMS() < s.lateMS()+s.serviceMS()-0.001 {
			t.Errorf("op %d latency %.2f ms < late %.2f + service %.2f", i, s.latencyMS(), s.lateMS(), s.serviceMS())
		}
	}
	// The third waits for two services before it can be sent.
	if late := ss[2].lateMS(); late < 2*40-2-1 {
		t.Errorf("third op late by %.2f ms, want >= ~78 ms", late)
	}
	if ss[2].latencyMS() < 3*40-2-1 {
		t.Errorf("third op latency %.2f ms, want >= ~118 ms from its due time", ss[2].latencyMS())
	}
}

func TestOpenLoopCancelMarksUnsent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ss := openLoop(ctx, []time.Duration{time.Hour, 2 * time.Hour}, make(chan struct{}, 1), func(context.Context, int) error { return nil })
	for i, s := range ss {
		if s.err == nil {
			t.Errorf("op %d has no error after cancel", i)
		}
	}
}

func TestClosedLoopCounts(t *testing.T) {
	ok, failed, elapsed := closedLoop(context.Background(), 2, 50*time.Millisecond, make(chan struct{}, 2), func(_ context.Context, w, n int) error {
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	if ok == 0 || failed != 0 || elapsed < 50*time.Millisecond {
		t.Fatalf("ok %d failed %d elapsed %v", ok, failed, elapsed)
	}
}
