package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/blast"
	"repro/internal/obs"
	"repro/internal/reqtrace"
	"repro/internal/server"
)

// Shared by the serve and ingest workloads: load phases against a daemon's
// /search, answer checks, and reading what the daemons report.

// phaseRNG derives a per-phase generator from the seed, so each phase's
// query order and arrival times are fixed by the seed alone.
func phaseRNG(seed int64, phase string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(phase))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// phaseOut is what one load phase measured.
type phaseOut struct {
	samples []sample // open loop only
	reqIDs  []string // request id per open-loop sample
	stats   []server.RequestStats
	ok      int
	failed  int
	elapsed time.Duration
}

func (p *phaseOut) latenciesMS() []float64 {
	xs := make([]float64, len(p.samples))
	for i, s := range p.samples {
		xs[i] = s.latencyMS()
	}
	return xs
}

// loadTarget is a daemon under load: its address, the query set, and the
// reference answer per query (nil while answers are still changing, as
// during ingestion; then only completeness is checked).
type loadTarget struct {
	addr    string
	queries []blast.Sequence
	want    [][]server.Hit
}

func (t *loadTarget) do(ctx context.Context, res *result, reqID string, qi int) (*server.SearchResponse, error) {
	resp, err := searchOne(ctx, t.addr, reqID, t.queries[qi])
	if err != nil {
		return nil, err
	}
	if t.want != nil {
		if err := sameHits(resp.Results[0].Hits, t.want[qi]); err != nil {
			res.check(false, "%s: query %s: answer differs from the in-process reference: %v", reqID, t.queries[qi].Name, err)
			return nil, err
		}
	}
	return resp, nil
}

// openPhase sends n single-query requests as a Poisson process at rate.
// slots bounds the requests in flight (shared with any writer running
// beside it).
func (e *env) openPhase(ctx context.Context, res *result, t *loadTarget, name string, rate float64, n int, slots chan struct{}) *phaseOut {
	rng := phaseRNG(e.seed, name)
	sched := poissonSchedule(rng, rate, n)
	order := rng.Perm(len(t.queries))
	out := &phaseOut{reqIDs: make([]string, len(sched)), stats: make([]server.RequestStats, len(sched))}
	for i := range sched {
		out.reqIDs[i] = fmt.Sprintf("pb-%s-%d-%d", name, e.seed, i)
	}
	start := time.Now()
	out.samples = openLoop(ctx, sched, slots, func(ctx context.Context, i int) error {
		resp, err := t.do(ctx, res, out.reqIDs[i], order[i%len(order)])
		if err == nil {
			out.stats[i] = resp.Stats
		}
		return err
	})
	out.elapsed = time.Since(start)
	for _, s := range out.samples {
		if s.err != nil {
			out.failed++
		} else {
			out.ok++
		}
	}
	res.count(len(out.samples), out.failed)
	e.logf("phase %s: open loop %.1f/s for %v: attempted %d, succeeded %d, failed %d%s",
		name, rate, out.elapsed.Round(time.Millisecond), len(out.samples), out.ok, out.failed, firstErr(out.samples))
	return out
}

// closedPhase runs conns back-to-back request streams for dur.
func (e *env) closedPhase(ctx context.Context, res *result, t *loadTarget, name string, conns int, dur time.Duration, slots chan struct{}) *phaseOut {
	order := phaseRNG(e.seed, name).Perm(len(t.queries))
	var mu sync.Mutex
	var firstFail error
	ok, failed, elapsed := closedLoop(ctx, conns, dur, slots, func(ctx context.Context, w, n int) error {
		_, err := t.do(ctx, res, fmt.Sprintf("pb-%s-%d-%d-%d", name, e.seed, w, n), order[(w*17+n)%len(order)])
		if err != nil {
			mu.Lock()
			if firstFail == nil {
				firstFail = err
			}
			mu.Unlock()
		}
		return err
	})
	res.count(ok+failed, failed)
	detail := ""
	if firstFail != nil {
		detail = fmt.Sprintf(" (first error: %v)", firstFail)
	}
	e.logf("phase %s: closed loop, %d connection(s) for %v: attempted %d, succeeded %d, failed %d%s",
		name, conns, dur, ok+failed, ok, failed, detail)
	return &phaseOut{ok: ok, failed: failed, elapsed: elapsed}
}

func firstErr(ss []sample) string {
	for _, s := range ss {
		if s.err != nil {
			return fmt.Sprintf(" (first error: %v)", s.err)
		}
	}
	return ""
}

// reference computes the in-process monolithic answer for every query.
func reference(ctx context.Context, db *blast.Database, qs []blast.Sequence) ([][]server.Hit, error) {
	texts := make([]string, len(qs))
	for i, q := range qs {
		texts[i] = q.Residues
	}
	br, err := db.SearchBatchCtx(ctx, texts)
	if err != nil {
		return nil, err
	}
	if br.Err != nil || br.CompletedCount() != len(qs) {
		return nil, fmt.Errorf("reference search incomplete: %v", br.Err)
	}
	want := make([][]server.Hit, len(qs))
	for i, r := range br.Results {
		want[i] = wireHits(r.Hits)
	}
	return want, nil
}

// daemonCounters is a snapshot of what one daemon reports about itself.
type daemonCounters struct {
	metrics map[string]float64
	mem     memStats
}

func snapshot(ctx context.Context, ds []*daemon) ([]daemonCounters, error) {
	out := make([]daemonCounters, len(ds))
	for i, d := range ds {
		var err error
		if out[i].metrics, err = metricsText(ctx, d.addr); err != nil {
			return nil, fmt.Errorf("%s /metrics: %w", d.name, err)
		}
		if out[i].mem, err = debugVars(ctx, d.addr); err != nil {
			return nil, fmt.Errorf("%s /debug/vars: %w", d.name, err)
		}
	}
	return out, nil
}

// delta sums a counter's growth across daemons between two snapshots.
func delta(before, after []daemonCounters, name string) float64 {
	var s float64
	for i := range after {
		s += after[i].metrics[name] - before[i].metrics[name]
	}
	return s
}

// serverLayers fills the server, core and GC metrics of a traced phase from
// the mublastpd trace trees and counter snapshots.
func serverLayers(L map[string]float64, traces []*reqtrace.Trace, before, after []daemonCounters) {
	var edge, adm, srch, self []float64
	stages := map[string]int64{}
	for _, tr := range traces {
		root := tr.Root
		if tr.Outcome != reqtrace.OutcomeOK || root == nil {
			continue
		}
		edge = append(edge, float64(root.Nanos)/1e6)
		self = append(self, float64(selfNanos(root))/1e6)
		if a := child(root, "admission"); a != nil {
			adm = append(adm, float64(a.Nanos)/1e6)
		}
		if s := child(root, "search"); s != nil {
			srch = append(srch, float64(s.Nanos)/1e6)
			stageNanos(s, stages)
		}
	}
	L["server.edge_ms"] = median(edge)
	L["server.admission_ms"] = median(adm)
	L["server.search_ms"] = median(srch)
	L["server.self_ms"] = median(self)
	L["server.shed"] = delta(before, after, "requests_shed")
	L["server.timed_out"] = delta(before, after, "requests_timed_out")
	var pause, heap float64
	for i := range after {
		pause += float64(after[i].mem.Memstats.PauseTotalNs-before[i].mem.Memstats.PauseTotalNs) / 1e6
		heap += float64(after[i].mem.Memstats.HeapAlloc) / (1 << 20)
	}
	L["server.gc_pause_ms"] = pause
	L["server.heap_mb"] = heap
	// Engine time per request, summed over the shards that served it.
	n := float64(max(len(edge), 1))
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		L["core."+s.String()+"_ms"] = float64(stages[s.String()]) / 1e6 / n
	}
	c := func(name string) int64 { return int64(delta(before, after, name)) }
	L["core.hits"] = float64(c("pipeline_hits_total"))
	L["core.pairs"] = float64(c("pipeline_pairs_total"))
	L["core.sorted_items"] = float64(c("pipeline_sorted_items_total"))
	L["core.extensions"] = float64(c("pipeline_ungapped_extensions_total"))
	L["core.kept"] = float64(c("pipeline_kept_extensions_total"))
	L["core.gapped_exts"] = float64(c("pipeline_gapped_extensions_total"))
	L["core.tracebacks"] = float64(c("pipeline_tracebacks_total"))
	L["core.prefilter_pass"] = ratio(c("pipeline_pairs_total"), c("pipeline_hits_total"))
	L["core.ungapped_yield"] = ratio(c("pipeline_kept_extensions_total"), c("pipeline_ungapped_extensions_total"))
	L["core.traceback_yield"] = ratio(c("pipeline_tracebacks_total"), c("pipeline_gapped_extensions_total"))
}

// schedLayers fills the scheduler metrics from the per-response stats.
func schedLayers(L map[string]float64, stats []server.RequestStats) {
	var tasks, busy, stall float64
	var util []float64
	for _, s := range stats {
		if s.Workers == 0 {
			continue
		}
		u := s.UtilizationPct / 100
		tasks += float64(s.Tasks)
		util = append(util, u)
		busy += u * float64(s.Workers) * s.SearchMS
		stall += (1 - u) * float64(s.Workers) * s.SearchMS
	}
	n := float64(max(len(util), 1))
	L["sched.tasks"] = tasks
	L["sched.utilization"] = median(util)
	L["sched.busy_ms"] = busy / n
	L["sched.stall_ms"] = stall / n
}

// budget prints the mean of each latency component over the requests whose
// latency lies in the middle decile around the median, next to their mean
// latency; the components sum to it.
func (e *env) budget(workload string, lat []float64, parts []string, comp [][]float64) {
	lo, hi := quantile(lat, 0.45), quantile(lat, 0.55)
	sums := make([]float64, len(parts))
	var total float64
	n := 0
	for i, l := range lat {
		if comp[i] == nil || l < lo || l > hi {
			continue
		}
		n++
		total += l
		for j, v := range comp[i] {
			sums[j] += v
		}
	}
	if n == 0 {
		return
	}
	var b strings.Builder
	var acc float64
	for j, p := range parts {
		fmt.Fprintf(&b, " %s=%.2f", p, sums[j]/float64(n))
		acc += sums[j] / float64(n)
	}
	e.logf("budget %s (p45-p55 band, n=%d, mean latency %.2f ms, components sum %.2f ms):%s",
		workload, n, total/float64(n), acc, b.String())
}

// loadSlices is the measured load of the serve and ingest workloads: the
// same three phases repeated in loadSlices rounds, so that every metric
// samples the whole run rather than one stretch of it.
const loadSlices = 3

type slicedLoad struct {
	lat, late, svc []float64 // every open-loop request
	p95s           []float64 // one per slice
	qpsN, qps1     []float64 // one per slice
	cpu, cpu1      []float64 // daemon CPU ms per request, open loop and 1 connection; one per slice
}

// runSlices runs loadSlices rounds of: an open-loop window at rate with
// enough arrivals for its own p95, then closed loops at nproc connections
// and at 1 connection. The open-loop windows together take about 70% of
// the run, the closed loops 30%. sut are the daemons whose CPU is charged.
// beside, if not nil, starts work that runs beside each open-loop window
// and returns the function that stops it.
func (e *env) runSlices(ctx context.Context, res *result, t *loadTarget, rate float64, slots chan struct{}, sut []*daemon, beside func() (stop func())) (*slicedLoad, error) {
	n := max(minTailSamples, int(rate*e.seconds.Seconds()*0.7/loadSlices))
	dc := e.seconds * 15 / 100 / loadSlices
	out := &slicedLoad{}
	// cpuPer runs fn and returns the daemons' CPU ms it cost per request.
	cpuPer := func(fn func() int) (float64, error) {
		c0, err := daemonsCPU(sut)
		if err != nil {
			return 0, err
		}
		reqs := fn()
		c1, err := daemonsCPU(sut)
		if err != nil {
			return 0, err
		}
		return float64(c1-c0) / 1e6 / float64(max(reqs, 1)), nil
	}
	for k := 0; k < loadSlices; k++ {
		var ph *phaseOut
		cpu, err := cpuPer(func() int {
			if beside != nil {
				defer beside()()
			}
			ph = e.openPhase(ctx, res, t, fmt.Sprintf("nominal%d", k), rate, n, slots)
			return ph.ok
		})
		if err != nil {
			return nil, err
		}
		lat := ph.latenciesMS()
		p, err := p95(lat)
		if err != nil {
			return nil, err
		}
		out.cpu = append(out.cpu, cpu)
		out.p95s = append(out.p95s, p)
		out.lat = append(out.lat, lat...)
		for _, s := range ph.samples {
			out.late = append(out.late, s.lateMS())
			out.svc = append(out.svc, s.serviceMS())
		}
		cN := e.closedPhase(ctx, res, t, fmt.Sprintf("qps%d", k), e.nproc, dc, slots)
		var c1 *phaseOut
		cpu1, err := cpuPer(func() int {
			c1 = e.closedPhase(ctx, res, t, fmt.Sprintf("qps_1t%d", k), 1, dc, slots)
			return c1.ok
		})
		if err != nil {
			return nil, err
		}
		out.cpu1 = append(out.cpu1, cpu1)
		out.qpsN = append(out.qpsN, float64(cN.ok)/cN.elapsed.Seconds())
		out.qps1 = append(out.qps1, float64(c1.ok)/c1.elapsed.Seconds())
		if err := e.fleet.checkAlive(); err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// setLoadMetrics sets the CPU metrics and the client's wall-clock metrics
// from the slices.
func (e *env) setLoadMetrics(res *result, sl *slicedLoad) {
	res.setMedian("cpu_ms_per_query", sl.cpu)
	res.setMedian("cpu_ms_per_query_1t", sl.cpu1)
	L := res.layer
	L["client.p50_ms"] = median(sl.lat)
	L["client.p95_ms"] = median(sl.p95s)
	L["client.qps"] = median(sl.qpsN)
	L["client.qps_1t"] = median(sl.qps1)
	e.logf("cpu: daemons spend %.3f ms per request at the nominal rate, %.3f ms on 1 connection (medians of %d slices)",
		median(sl.cpu), median(sl.cpu1), len(sl.cpu))
	e.logf("latency: p50 %.2f ms (n=%d); p95 %.2f ms (median of %d slice p95s, each n>=%d); service time p50 %.2f ms; generator lateness p50 %.2f ms p95 %.2f ms",
		median(sl.lat), len(sl.lat), median(sl.p95s), len(sl.p95s), minTailSamples, median(sl.svc), median(sl.late), quantile(sl.late, 0.95))
	e.logf("throughput: wall qps %.2f on %d connections, %.2f on 1 (medians of %d closed-loop windows)", median(sl.qpsN), e.nproc, median(sl.qps1), len(sl.qpsN))
}
