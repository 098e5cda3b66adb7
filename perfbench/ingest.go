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
	ingestSetups = 9
	ingestRate   = 30.0 // nominal open-loop search rate beside the writes
	// ingestEvery is the fixed interval between POST /ingest batches.
	ingestEvery = 2 * time.Second
)

// ingestDaemon is one started mublastpd serving an ingest store.
type ingestDaemon struct {
	d       *daemon
	dir     string
	setup   time.Duration
	build   time.Duration
	load    time.Duration
	indexMB float64
}

// startIngest goes from the generated FASTA to a ready store daemon:
// initialise the store (base container, manifest, WAL), start mublastpd
// -store on it, and wait for /readyz.
func (e *env) startIngest(ctx context.Context, fasta string, p blast.Params, tag string, traced bool) (*ingestDaemon, error) {
	f := &ingestDaemon{dir: filepath.Join(e.tmp, tag+".store")}
	start := time.Now()
	var seqs []blast.Sequence
	if _, err := e.spans.time("blast.ReadFASTAFile", func() (err error) { seqs, err = blast.ReadFASTAFile(fasta); return }); err != nil {
		return nil, err
	}
	var st *blast.Store
	var err error
	f.build, err = e.spans.time("blast.InitStore", func() (err error) { st, err = blast.InitStore(f.dir, seqs, p); return })
	if err != nil {
		return nil, err
	}
	db, err := st.Database()
	if err != nil {
		return nil, err
	}
	f.indexMB = float64(db.IndexSizeBytes()) / (1 << 20)
	args := []string{"-store", f.dir, "-addr", "127.0.0.1:0", "-threads", strconv.Itoa(e.nproc),
		"-compact-after", "0", "-drain-grace", "2s"}
	if traced {
		args = append(args, "-trace", filepath.Join(e.tmp, tag+".trace.jsonl"))
	}
	loadStart := time.Now()
	f.d, err = e.fleet.start(ctx, "mublastpd[store]", filepath.Join(e.bin, "mublastpd"), filepath.Join(e.tmp, tag+".mublastpd.err"), args...)
	if err != nil {
		return nil, err
	}
	f.load = time.Since(loadStart)
	f.setup = time.Since(start)
	return f, nil
}

// writer posts the fixed ingest schedule: while running, one batch every
// ingestEvery. Each POST holds one of the in-flight slots the searches use.
type writer struct {
	batches  [][]blast.Sequence
	next     int              // next batch to post
	acked    []blast.Sequence // acknowledged appends, in commit order
	ingestMS []float64
	failed   int
	firstErr error
	stop     chan struct{}
	done     chan struct{}
}

// start begins posting, from the next unposted batch, until pause.
func (w *writer) start(ctx context.Context, e *env, res *result, addr string, slots chan struct{}) {
	w.stop, w.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(w.done)
		tick := time.NewTicker(ingestEvery)
		defer tick.Stop()
		for ; w.next < len(w.batches); w.next++ {
			select {
			case <-tick.C:
			case <-w.stop:
				return
			case <-ctx.Done():
				return
			}
			select {
			case slots <- struct{}{}:
			case <-ctx.Done():
				return
			}
			batch := w.batches[w.next]
			req := server.IngestRequest{Sequences: make([]server.IngestSequence, len(batch))}
			for i, s := range batch {
				req.Sequences[i] = server.IngestSequence{Name: s.Name, Residues: s.Residues}
			}
			var resp server.IngestResponse
			d, err := e.spans.time("POST /ingest", func() error {
				return postJSON(ctx, "http://"+addr+"/ingest", "", req, &resp)
			})
			<-slots
			if err != nil {
				res.count(1, 1)
				w.failed++
				if w.firstErr == nil {
					w.firstErr = err
				}
			} else {
				res.count(1, 0)
				w.acked = append(w.acked, batch...)
				w.ingestMS = append(w.ingestMS, float64(d)/1e6)
			}
		}
	}()
}

// pause stops posting and waits for the writer to finish.
func (w *writer) pause() {
	close(w.stop)
	<-w.done
}

func (w *writer) log(e *env, name string) {
	e.logf("phase %s: ingest batches attempted %d, acknowledged %d, failed %d; ingest latency p50 %.2f ms (n=%d)",
		name, len(w.ingestMS)+w.failed, len(w.ingestMS), w.failed, median(w.ingestMS), len(w.ingestMS))
	if w.firstErr != nil {
		e.logf("phase %s: first ingest error: %v", name, w.firstErr)
	}
}

// verifyStore checks the daemon after a window: its sequence count equals
// the base plus every acknowledged append, and every probe's answer equals
// an in-process rebuild over the same sequences. It returns the reference
// answers for later phases.
func (e *env) verifyStore(ctx context.Context, res *result, d *daemon, base, acked []blast.Sequence, qs []blast.Sequence, p blast.Params) ([][]server.Hit, error) {
	all := append(append([]blast.Sequence(nil), base...), acked...)
	rp := p
	rp.Threads = e.nproc
	rebuild, err := blast.NewDatabase(all, rp)
	if err != nil {
		return nil, err
	}
	want, err := reference(ctx, rebuild, qs)
	if err != nil {
		return nil, err
	}
	var info server.ShardInfoResponse
	if err := getJSON(ctx, "http://"+d.addr+"/shard/info", &info); err != nil {
		return nil, fmt.Errorf("/shard/info: %w", err)
	}
	res.check(info.Sequences == rebuild.NumSequences(), "ingest: daemon holds %d sequences, base + acknowledged rebuild holds %d", info.Sequences, rebuild.NumSequences())
	t := &loadTarget{addr: d.addr, queries: qs, want: want}
	bad := 0
	for qi := range qs {
		if _, err := t.do(ctx, res, fmt.Sprintf("pb-probe-%d-%d", e.seed, qi), qi); err != nil {
			bad++
		}
	}
	res.count(len(qs), bad)
	e.logf("verify: %d sequences (%d deltas); %d probes, %d differ from the rebuild over base + %d acknowledged",
		info.Sequences, info.Deltas, len(qs), bad, len(acked))
	return want, nil
}

// runIngest serves single short queries from a mublastpd ingest store while
// a fixed schedule of POST /ingest batches lands beside them.
func runIngest(ctx context.Context, e *env) (*result, error) {
	in, err := generate("ingest", e.seed)
	if err != nil {
		return nil, err
	}
	fasta := filepath.Join(e.tmp, "base.fasta")
	if err := writeFASTA(fasta, in.db); err != nil {
		return nil, err
	}
	p := blast.DefaultParams()
	res := newResult()

	var setups, setupWall, builds, loads []float64
	var sd *ingestDaemon
	for k := 0; k < ingestSetups; k++ {
		if sd != nil {
			e.fleet.stopAll()
		}
		cpu0 := selfCPU()
		if sd, err = e.startIngest(ctx, fasta, p, fmt.Sprintf("i%d", k), false); err != nil {
			return nil, err
		}
		dcpu, err := daemonsCPU([]*daemon{sd.d})
		if err != nil {
			return nil, err
		}
		setups = append(setups, (selfCPU() - cpu0 + dcpu).Seconds())
		setupWall = append(setupWall, sd.setup.Seconds())
		builds = append(builds, sd.build.Seconds())
		loads = append(loads, sd.load.Seconds())
	}
	res.setMedian("setup_s", setups)
	e.logf("setup: CPU %.4f s, wall %.4f s (median of %d)", median(setups), median(setupWall), len(setups))

	// Warm up on the base store, answers checked against a base-only build.
	baseWant, err := e.verifyStore(ctx, res, sd.d, in.db, nil, in.queries, p)
	if err != nil {
		return nil, err
	}
	t := &loadTarget{addr: sd.d.addr, queries: in.queries, want: baseWant}
	slots := make(chan struct{}, e.nproc)
	e.closedPhase(ctx, res, t, "warmup", e.nproc, time.Second, slots)
	e.logf("ingest: base %d sequences, %d probe queries of %d-%d residues, %d-sequence batches every %v",
		len(in.db), len(in.queries), shortQueryMin, shortQueryMax, ingestBatchSeqs, ingestEvery)

	// The writes land during the open-loop windows only, so the closed
	// loops measure searches alone, on whatever tiers exist by then.
	// Answers change while appends land, so searches are checked for
	// completeness only; the full check follows the load.
	t.want = nil
	w := &writer{batches: in.ingest}
	sl, err := e.runSlices(ctx, res, t, ingestRate, slots, []*daemon{sd.d}, func() func() {
		w.start(ctx, e, res, t.addr, slots)
		return w.pause
	})
	w.log(e, "writes")
	if err != nil {
		return nil, err
	}
	if _, err := e.verifyStore(ctx, res, sd.d, in.db, w.acked, in.queries, p); err != nil {
		return nil, err
	}
	rss, err := sd.d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	e.setLoadMetrics(res, sl)
	res.set("peak_rss_mb", rss, 1)
	if !e.trace {
		return res, nil
	}

	// Traced run: one more window, on a fresh store served with -trace.
	L := res.layer
	L["blast.build_s"] = median(builds)
	L["blast.load_s"] = median(loads)
	L["blast.index_mb"] = sd.indexMB
	e.fleet.stopAll()
	e.startTracedPhase()
	if sd, err = e.startIngest(ctx, fasta, p, "traced", true); err != nil {
		return nil, err
	}
	t = &loadTarget{addr: sd.d.addr, queries: in.queries, want: baseWant}
	e.closedPhase(ctx, res, t, "warmup-traced", e.nproc, time.Second, slots)
	t.want = nil
	before, err := snapshot(ctx, []*daemon{sd.d})
	if err != nil {
		return nil, err
	}
	w = &writer{batches: in.ingest}
	w.start(ctx, e, res, t.addr, slots)
	win := e.openPhase(ctx, res, t, "traced", ingestRate, int(ingestRate*e.seconds.Seconds()/2), slots)
	w.pause()
	w.log(e, "traced")
	after, err := snapshot(ctx, []*daemon{sd.d})
	if err != nil {
		return nil, err
	}
	if _, err := e.verifyStore(ctx, res, sd.d, in.db, w.acked, in.queries, p); err != nil {
		return nil, err
	}
	if err := e.fleet.checkAlive(); err != nil {
		return nil, err
	}
	e.fleet.stopAll()
	traces, err := readTraceFile(filepath.Join(e.tmp, "traced.trace.jsonl"))
	if err != nil {
		return nil, err
	}
	// The verification probes are in the trace file too; keep the window's.
	byID := map[string]*reqtrace.Trace{}
	var windowTraces []*reqtrace.Trace
	for _, tr := range traces {
		byID[tr.RequestID] = tr
	}
	lat := win.latenciesMS()
	comp := make([][]float64, len(lat))
	var unattr, late, qwait []float64
	for i, s := range win.samples {
		late = append(late, s.lateMS())
		tr := byID[win.reqIDs[i]]
		if s.err != nil || tr == nil || tr.Root == nil {
			continue
		}
		windowTraces = append(windowTraces, tr)
		comp[i] = monoBudget(s, tr.Root)
		unattr = append(unattr, comp[i][1])
		qwait = append(qwait, win.stats[i].QueueWaitMS)
	}
	if len(windowTraces) == 0 {
		return nil, fmt.Errorf("no traced ingest-window request found in the daemon's trace file")
	}
	serverLayers(L, windowTraces, before, after)
	L["server.queue_wait_ms"] = median(qwait)
	L["client.late_ms"] = quantile(late, 0.95)
	L["client.unattributed_ms"] = median(unattr)
	schedLayers(L, win.stats)
	L["store.append_ms"] = median(w.ingestMS)
	L["store.ingests"] = float64(len(w.ingestMS))
	L["store.ingests_shed"] = delta(before, after, "ingest_shed")
	L["store.tiers"] = after[0].metrics["delta_count"]
	p0, p1 := L["client.p50_ms"], median(lat)
	L["trace.overhead_pct"] = 100 * (p1/p0 - 1)
	e.logf("trace: ingest p50 untraced %.2f ms, traced %.2f ms: overhead %.2f%% (%d requests traced)", p0, p1, L["trace.overhead_pct"], len(windowTraces))
	e.budget("ingest", lat, monoParts, comp)
	return res, nil
}
