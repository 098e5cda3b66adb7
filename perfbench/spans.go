package main

import (
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/reqtrace"
)

// selfNanos is a span's duration minus the part of its interval that its
// children cover. Overlapping children count once, and child time outside
// the parent's interval is ignored.
func selfNanos(s *reqtrace.Span) int64 {
	lo, hi := s.StartNS, s.StartNS+s.Nanos
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range s.Children {
		a, b := max(c.StartNS, lo), min(c.StartNS+c.Nanos, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64 = 0, lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return s.Nanos - covered
}

func child(s *reqtrace.Span, name string) *reqtrace.Span {
	for _, c := range s.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// stageNanos sums the engine's stage:<name> spans under s by stage name.
func stageNanos(s *reqtrace.Span, into map[string]int64) {
	s.Walk(func(sp *reqtrace.Span) {
		if name, ok := strings.CutPrefix(sp.Name, "stage:"); ok {
			into[name] += sp.Nanos
		}
	})
}

func readTraceFile(path string) ([]*reqtrace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return reqtrace.ReadTraces(f)
}

// clientSpans records the benchmark's own spans around its calls into the
// system's public functions. It is nil (and free) in untraced runs.
type clientSpans struct {
	mu    sync.Mutex
	spans []clientSpan
}

type clientSpan struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_unix_ns"`
	Nanos   int64  `json:"nanos"`
}

// time runs fn and, when tracing, records it as a span named name.
func (c *clientSpans) time(name string, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	if c != nil {
		c.mu.Lock()
		c.spans = append(c.spans, clientSpan{Name: name, StartNS: start.UnixNano(), Nanos: d.Nanoseconds()})
		c.mu.Unlock()
	}
	return d, err
}

func nsToMS(n int64) float64 { return float64(n) / 1e6 }

// The latency budget of one request splits its client latency, timed from
// the scheduled send, into parts that sum to it exactly: the generator's
// lateness, the unattributed remainder (client time outside the outermost
// daemon span: connection, kernel, HTTP client), and each layer's self time
// along the critical path.
var (
	monoParts   = []string{"client.late", "client.unattributed", "server.self", "server.admission", "server.search"}
	routerParts = []string{"client.late", "client.unattributed", "router.self", "router.merge", "router.scatter_self",
		"wire.rpc", "server.self", "server.admission", "server.search"}
)

// monoBudget splits a request served by one mublastpd edge span.
func monoBudget(s sample, edge *reqtrace.Span) []float64 {
	var adm, srch int64
	if a := child(edge, "admission"); a != nil {
		adm = a.Nanos
	}
	if x := child(edge, "search"); x != nil {
		srch = x.Nanos
	}
	return []float64{s.lateMS(), s.serviceMS() - nsToMS(edge.Nanos), nsToMS(selfNanos(edge)), nsToMS(adm), nsToMS(srch)}
}

// routerBudget splits a request served by mublastpr: router edge, the
// slowest shard's span (the critical path), and the mublastpd edge that
// shard span called. The wire part is the shard span minus that worker's
// edge: request marshal, loopback transport and result import. It returns
// nil when the tree lacks a part.
func routerBudget(s sample, edge *reqtrace.Span, workerBy map[string]*reqtrace.Span) []float64 {
	sc, mg := child(edge, "scatter"), child(edge, "merge")
	if sc == nil || mg == nil {
		return nil
	}
	crit := slowest(sc)
	if crit == nil || workerBy[crit.SpanID] == nil {
		return nil
	}
	w := workerBy[crit.SpanID]
	mono := monoBudget(sample{done: time.Duration(w.Nanos)}, w)
	return []float64{s.lateMS(), s.serviceMS() - nsToMS(edge.Nanos), nsToMS(selfNanos(edge)), nsToMS(mg.Nanos),
		nsToMS(sc.Nanos - crit.Nanos), nsToMS(crit.Nanos - w.Nanos), mono[2], mono[3], mono[4]}
}

func slowest(s *reqtrace.Span) *reqtrace.Span {
	var out *reqtrace.Span
	for _, c := range s.Children {
		if out == nil || c.Nanos > out.Nanos {
			out = c
		}
	}
	return out
}
