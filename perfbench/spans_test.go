package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/reqtrace"
)

func span(name string, start, nanos int64, children ...*reqtrace.Span) *reqtrace.Span {
	return &reqtrace.Span{Name: name, SpanID: name, StartNS: start, Nanos: nanos, Children: children}
}

func TestSelfNanos(t *testing.T) {
	// Children cover 10-50 (two overlapping), 60-70, and 90-100 of a
	// child running past the parent's end: 60 of 100 ns.
	root := span("edge", 0, 100,
		span("a", 10, 20), span("b", 20, 30), span("c", 60, 10), span("d", 90, 30))
	if got := selfNanos(root); got != 40 {
		t.Errorf("self = %d, want 40", got)
	}
	if got := selfNanos(span("leaf", 5, 7)); got != 7 {
		t.Errorf("leaf self = %d, want 7", got)
	}
}

const ms = int64(time.Millisecond)

func TestMonoBudgetSumsToLatency(t *testing.T) {
	edge := span("edge", 0, 30*ms, span("admission", 1*ms, 4*ms), span("search", 5*ms, 22*ms))
	s := sample{due: 0, sent: 2 * time.Millisecond, done: 35 * time.Millisecond}
	got := monoBudget(s, edge)
	want := []float64{2, 3, 4, 4, 22} // late, unattributed (33-30), self (30-4-22), admission, search
	checkBudget(t, got, want, s.latencyMS())
}

func TestRouterBudgetSumsToLatency(t *testing.T) {
	w0 := span("w0", 0, 10*ms, span("admission", 0, 1*ms), span("search", 1*ms, 8*ms))
	w1 := span("w1", 0, 16*ms, span("admission", 0, 2*ms), span("search", 2*ms, 12*ms))
	edge := span("edge", 0, 25*ms,
		span("scatter", 1*ms, 19*ms, span("shard0", 1*ms, 12*ms), span("shard1", 1*ms, 18*ms)),
		span("merge", 20*ms, 3*ms))
	workers := map[string]*reqtrace.Span{"shard0": w0, "shard1": w1}
	s := sample{due: 0, sent: 1 * time.Millisecond, done: 28 * time.Millisecond}
	got := routerBudget(s, edge, workers)
	// late 1, unattributed 27-25, router self 25-19-3, merge 3, scatter
	// self 19-18, wire 18-16 on the slowest shard, worker self 16-2-12,
	// admission 2, search 12.
	want := []float64{1, 2, 3, 3, 1, 2, 2, 2, 12}
	checkBudget(t, got, want, s.latencyMS())
	delete(workers, "shard1")
	if routerBudget(s, edge, workers) != nil {
		t.Error("budget built without the critical shard's worker span")
	}
}

func checkBudget(t *testing.T, got, want []float64, latency float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("budget %v, want %v", got, want)
	}
	var sum float64
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("part %d = %v, want %v", i, got[i], want[i])
		}
		sum += got[i]
	}
	if math.Abs(sum-latency) > 1e-9 {
		t.Errorf("parts sum to %v, latency is %v", sum, latency)
	}
}
