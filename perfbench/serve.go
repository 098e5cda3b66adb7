package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"time"

	"repro/blast"
	"repro/internal/reqtrace"
	"repro/internal/server"
)

const (
	serveShards        = 2
	serveSetups        = 5
	serveBlockResidues = 1 << 24 // one index block per shard
	// serveRate is the nominal open-loop arrival rate. It is fixed, below
	// the 2-core fleet's closed-loop capacity, so that baseline and
	// candidate see the same offered load.
	serveRate = 30.0
)

// serveFleet is one started router + shard-worker deployment.
type serveFleet struct {
	router  *daemon
	workers []*daemon
	setup   time.Duration
	build   time.Duration
	load    time.Duration // daemon start to ready, all daemons
	indexMB float64
}

// startServe goes from the generated FASTA to a ready fleet: build the
// index, cut it into round-robin shard containers, start one mublastpd
// worker per shard (1 thread, global search space set) and mublastpr in
// front of them, and wait until every /readyz is green.
func (e *env) startServe(ctx context.Context, fasta string, p blast.Params, tag string, traced bool) (*serveFleet, error) {
	f := &serveFleet{}
	start := time.Now()
	var seqs []blast.Sequence
	var db *blast.Database
	var shards []*blast.Database
	if _, err := e.spans.time("blast.ReadFASTAFile", func() (err error) { seqs, err = blast.ReadFASTAFile(fasta); return }); err != nil {
		return nil, err
	}
	var err error
	f.build, err = e.spans.time("blast.NewDatabase", func() (err error) { db, err = blast.NewDatabase(seqs, p); return })
	if err != nil {
		return nil, err
	}
	if _, err := e.spans.time("Database.Shards", func() (err error) { shards, err = db.Shards(serveShards); return }); err != nil {
		return nil, err
	}
	gres, gseqs := db.GlobalSearchSpace()
	var urls string
	loadStart := time.Now()
	for i, sh := range shards {
		path := filepath.Join(e.tmp, fmt.Sprintf("%s.shard%d", tag, i))
		if _, err := e.spans.time("Database.SaveFile", func() error { return sh.SaveFile(path) }); err != nil {
			return nil, err
		}
		f.indexMB += float64(sh.IndexSizeBytes()) / (1 << 20)
		args := []string{"-db", path, "-addr", "127.0.0.1:0", "-threads", "1",
			"-global-sequences", strconv.FormatInt(gseqs, 10), "-global-residues", strconv.FormatInt(gres, 10),
			"-drain-grace", "2s"}
		if traced {
			args = append(args, "-trace", filepath.Join(e.tmp, fmt.Sprintf("%s.worker%d.trace.jsonl", tag, i)))
		}
		name := fmt.Sprintf("mublastpd[shard%d]", i)
		d, err := e.fleet.start(ctx, name, filepath.Join(e.bin, "mublastpd"), filepath.Join(e.tmp, tag+"."+name+".err"), args...)
		if err != nil {
			return nil, err
		}
		var info server.ShardInfoResponse
		if _, err := e.spans.time("GET /shard/info", func() error { return getJSON(ctx, "http://"+d.addr+"/shard/info", &info) }); err != nil {
			return nil, fmt.Errorf("%s /shard/info: %w", name, err)
		}
		if info.GlobalSequences != gseqs {
			return nil, fmt.Errorf("%s reports global sequences %d, want %d", name, info.GlobalSequences, gseqs)
		}
		f.workers = append(f.workers, d)
		if i > 0 {
			urls += ","
		}
		urls += "http://" + d.addr
	}
	args := []string{"-workers", urls, "-addr", "127.0.0.1:0", "-drain-grace", "2s"}
	if traced {
		args = append(args, "-trace", filepath.Join(e.tmp, tag+".router.trace.jsonl"))
	}
	f.router, err = e.fleet.start(ctx, "mublastpr", filepath.Join(e.bin, "mublastpr"), filepath.Join(e.tmp, tag+".mublastpr.err"), args...)
	if err != nil {
		return nil, err
	}
	f.load = time.Since(loadStart)
	f.setup = time.Since(start)
	return f, nil
}

func (f *serveFleet) all() []*daemon { return append([]*daemon{f.router}, f.workers...) }

func (f *serveFleet) peakRSSMB() (float64, error) {
	var s float64
	for _, d := range f.all() {
		v, err := d.peakRSSMB()
		if err != nil {
			return 0, err
		}
		s += v
	}
	return s, nil
}

// runServe drives single short queries through mublastpr in front of two
// remote mublastpd shard workers, checking every answer against the
// in-process monolithic search.
func runServe(ctx context.Context, e *env) (*result, error) {
	in, err := generate("serve", e.seed)
	if err != nil {
		return nil, err
	}
	fasta := filepath.Join(e.tmp, "db.fasta")
	if err := writeFASTA(fasta, in.db); err != nil {
		return nil, err
	}
	p := blast.DefaultParams()
	p.BlockResidues = serveBlockResidues
	res := newResult()

	// The reference answers come first and are not part of set-up.
	refP := p
	refP.Threads = e.nproc
	mono, err := blast.NewDatabase(in.db, refP)
	if err != nil {
		return nil, err
	}
	want, err := reference(ctx, mono, in.queries)
	if err != nil {
		return nil, err
	}
	e.logf("serve: %d sequences in %d shards of one block, %d distinct queries of %d-%d residues",
		mono.NumSequences(), serveShards, len(in.queries), shortQueryMin, shortQueryMax)

	var setups, setupWall, builds, loads []float64
	var fl *serveFleet
	for k := 0; k < serveSetups; k++ {
		if fl != nil {
			e.fleet.stopAll()
		}
		cpu0 := selfCPU()
		fl, err = e.startServe(ctx, fasta, p, fmt.Sprintf("s%d", k), false)
		if err != nil {
			return nil, err
		}
		dcpu, err := daemonsCPU(fl.all())
		if err != nil {
			return nil, err
		}
		setups = append(setups, (selfCPU() - cpu0 + dcpu).Seconds())
		setupWall = append(setupWall, fl.setup.Seconds())
		builds = append(builds, fl.build.Seconds())
		loads = append(loads, fl.load.Seconds())
	}
	res.setMedian("setup_s", setups)
	e.logf("setup: CPU %.4f s, wall %.4f s (median of %d)", median(setups), median(setupWall), len(setups))
	t := &loadTarget{addr: fl.router.addr, queries: in.queries, want: want}
	slots := make(chan struct{}, e.nproc)
	e.closedPhase(ctx, res, t, "warmup", e.nproc, time.Second, slots)
	sl, err := e.runSlices(ctx, res, t, serveRate, slots, fl.all(), nil)
	if err != nil {
		return nil, err
	}
	rss, err := fl.peakRSSMB()
	if err != nil {
		return nil, err
	}
	e.setLoadMetrics(res, sl)
	res.set("peak_rss_mb", rss, 1)
	if !e.trace {
		return res, nil
	}

	// Traced run: one more open-loop window, on a fleet started with -trace.
	L := res.layer
	L["blast.build_s"] = median(builds)
	L["blast.load_s"] = median(loads)
	L["blast.index_mb"] = fl.indexMB
	e.fleet.stopAll()
	e.startTracedPhase()
	fl, err = e.startServe(ctx, fasta, p, "traced", true)
	if err != nil {
		return nil, err
	}
	t.addr = fl.router.addr
	e.closedPhase(ctx, res, t, "warmup-traced", e.nproc, time.Second, slots)
	before, err := snapshot(ctx, fl.all())
	if err != nil {
		return nil, err
	}
	traced := e.openPhase(ctx, res, t, "traced", serveRate, int(serveRate*e.seconds.Seconds()/2), slots)
	after, err := snapshot(ctx, fl.all())
	if err != nil {
		return nil, err
	}
	if err := e.fleet.checkAlive(); err != nil {
		return nil, err
	}
	e.fleet.stopAll() // flushes and closes the trace files
	return res, serveLayers(e, res, fl, traced, before, after)
}

// serveLayers reads the traced fleet's trace trees and counters into the
// per-layer metrics and prints the latency budget.
func serveLayers(e *env, res *result, fl *serveFleet, traced *phaseOut, before, after []daemonCounters) error {
	L := res.layer
	rtr, err := readTraceFile(filepath.Join(e.tmp, "traced.router.trace.jsonl"))
	if err != nil {
		return err
	}
	var wtr []*reqtrace.Trace
	for i := range fl.workers {
		ts, err := readTraceFile(filepath.Join(e.tmp, fmt.Sprintf("traced.worker%d.trace.jsonl", i)))
		if err != nil {
			return err
		}
		wtr = append(wtr, ts...)
	}
	// Worker edges by the router shard span that called them.
	workerBy := map[string]*reqtrace.Span{}
	for _, tr := range wtr {
		if tr.Root != nil {
			workerBy[tr.Root.ParentID] = tr.Root
		}
	}
	routerBy := map[string]*reqtrace.Span{}
	for _, tr := range rtr {
		if tr.Outcome == reqtrace.OutcomeOK && tr.Root != nil {
			routerBy[tr.RequestID] = tr.Root
		}
	}
	serverLayers(L, wtr, before[1:], after[1:])

	var edge, scatter, shard, merge, self, skew, wire, unattr, late []float64
	lat := traced.latenciesMS()
	comp := make([][]float64, len(lat))
	for i, s := range traced.samples {
		late = append(late, s.lateMS())
		root := routerBy[traced.reqIDs[i]]
		if s.err != nil || root == nil {
			continue
		}
		if comp[i] = routerBudget(s, root, workerBy); comp[i] == nil {
			continue
		}
		sc := child(root, "scatter")
		crit, fast := slowest(sc), sc.Children[0]
		for _, sh := range sc.Children {
			if sh.Nanos < fast.Nanos {
				fast = sh
			}
			if w := workerBy[sh.SpanID]; w != nil {
				wire = append(wire, nsToMS(sh.Nanos-w.Nanos))
			}
		}
		edge = append(edge, nsToMS(root.Nanos))
		scatter = append(scatter, nsToMS(sc.Nanos))
		shard = append(shard, nsToMS(crit.Nanos))
		merge = append(merge, nsToMS(child(root, "merge").Nanos))
		self = append(self, nsToMS(selfNanos(root)))
		skew = append(skew, nsToMS(crit.Nanos-fast.Nanos))
		unattr = append(unattr, comp[i][1])
	}
	if len(edge) == 0 {
		return fmt.Errorf("no traced serve request could be joined across router and workers")
	}
	L["router.edge_ms"] = median(edge)
	L["router.scatter_ms"] = median(scatter)
	L["router.shard_ms"] = median(shard)
	L["router.merge_ms"] = median(merge)
	L["router.self_ms"] = median(self)
	L["router.shard_skew_ms"] = median(skew)
	L["router.attempts"] = delta(before[:1], after[:1], "router_shard_searches")
	L["router.retries"] = delta(before[:1], after[:1], "router_retries")
	L["router.hedges"] = delta(before[:1], after[:1], "router_hedges_fired")
	L["router.partial"] = delta(before[:1], after[:1], "router_partial_responses")
	L["wire.rpc_ms"] = median(wire)
	L["server.queue_wait_ms"] = L["server.admission_ms"]
	L["client.late_ms"] = quantile(late, 0.95)
	L["client.unattributed_ms"] = median(unattr)
	// The router's merged scheduler stats mix shards; only the task count
	// adds up across them.
	var tasks float64
	for _, st := range traced.stats {
		tasks += float64(st.Tasks)
	}
	L["sched.tasks"] = tasks
	p0, p1 := L["client.p50_ms"], median(lat)
	L["trace.overhead_pct"] = 100 * (p1/p0 - 1)
	e.logf("trace: serve p50 untraced %.2f ms, traced %.2f ms: overhead %.2f%% (%d requests joined)", p0, p1, L["trace.overhead_pct"], len(edge))
	e.budget("serve", lat, routerParts, comp)
	return nil
}
