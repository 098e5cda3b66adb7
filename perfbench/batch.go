package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/blast"
	"repro/internal/obs"
	"repro/internal/search"
)

const (
	batchSetups = 7
	// batchMinRounds makes the per-query latency sample reach the p95 floor.
	batchMinRounds = (minTailSamples + batchQueries - 1) / batchQueries
)

// batchPass is one search-and-render of the whole query set.
type batchPass struct {
	wall, render time.Duration
	br           *blast.BatchResult
	tabular      []string // per query, as mublastp -format tabular prints it
}

func searchAndRender(ctx context.Context, e *env, db *blast.Database, qs []blast.Sequence, texts []string) (*batchPass, error) {
	p := &batchPass{tabular: make([]string, len(qs))}
	start := time.Now()
	_, err := e.spans.time("Database.SearchBatchCtx", func() error {
		var err error
		p.br, err = db.SearchBatchCtx(ctx, texts)
		return err
	})
	if err != nil {
		return nil, err
	}
	p.render, _ = e.spans.time("Result.Tabular", func() error {
		for i, r := range p.br.Results {
			if p.br.Completed[i] {
				p.tabular[i] = r.Tabular(qs[i].Name)
			}
		}
		return nil
	})
	p.wall = time.Since(start)
	return p, nil
}

// runBatch is the in-process offline batch: the whole query set searched at
// nproc threads and again at 1 thread, in alternating rounds, every output
// compared with the first 1-thread output.
func runBatch(ctx context.Context, e *env) (*result, error) {
	in, err := generate("batch", e.seed)
	if err != nil {
		return nil, err
	}
	fasta := filepath.Join(e.tmp, "db.fasta")
	if err := writeFASTA(fasta, in.db); err != nil {
		return nil, err
	}
	p := blast.DefaultParams()
	p.BlockResidues = batchBlockResidues
	p.Threads = e.nproc
	res := newResult()

	container := filepath.Join(e.tmp, "db.mublastp")
	var setups, setupWall, builds, loads []float64
	var dbN *blast.Database
	for k := 0; k < batchSetups; k++ {
		// Drop the previous set-up's database first, so the peak resident
		// set reflects one database, not however many the GC kept.
		dbN = nil
		runtime.GC()
		start, cpu0 := time.Now(), selfCPU()
		var seqs []blast.Sequence
		var built *blast.Database
		if _, err := e.spans.time("blast.ReadFASTAFile", func() (err error) { seqs, err = blast.ReadFASTAFile(fasta); return }); err != nil {
			return nil, err
		}
		b, err := e.spans.time("blast.NewDatabase", func() (err error) { built, err = blast.NewDatabase(seqs, p); return })
		if err != nil {
			return nil, err
		}
		if _, err := e.spans.time("Database.SaveFile", func() error { return built.SaveFile(container) }); err != nil {
			return nil, err
		}
		l, err := e.spans.time("blast.LoadFile", func() (err error) { dbN, err = blast.LoadFile(container, p); return })
		if err != nil {
			return nil, err
		}
		setups = append(setups, (selfCPU() - cpu0).Seconds())
		setupWall = append(setupWall, time.Since(start).Seconds())
		builds = append(builds, b.Seconds())
		loads = append(loads, l.Seconds())
	}
	p1 := p
	p1.Threads = 1
	db1, err := blast.LoadFile(container, p1)
	if err != nil {
		return nil, err
	}
	if dbN.NumBlocks() < 4 {
		return nil, fmt.Errorf("batch database has %d index blocks, want >= 4", dbN.NumBlocks())
	}
	texts := make([]string, len(in.queries))
	qlen := 0
	for i, q := range in.queries {
		texts[i] = q.Residues
		qlen += len(q.Residues)
	}
	e.logf("batch: %d sequences, %d residues, %d blocks, index %.1f MB; %d queries, %d residues; setup median of %d",
		dbN.NumSequences(), dbN.TotalResidues(), dbN.NumBlocks(), float64(dbN.IndexSizeBytes())/(1<<20),
		len(texts), qlen, batchSetups)

	// The reference answer is the first 1-thread pass (also the warm-up);
	// it is not timed.
	ref, err := searchAndRender(ctx, e, db1, in.queries, texts)
	if err != nil {
		return nil, err
	}
	if _, err := searchAndRender(ctx, e, dbN, in.queries, texts); err != nil {
		return nil, err
	}

	check := func(pass *batchPass, threads int) {
		failed := 0
		for i := range texts {
			switch {
			case !pass.br.Completed[i]:
				failed++
				res.check(false, "batch: query %s incomplete at %d threads: %v", in.queries[i].Name, threads, pass.br.QueryErrs[i])
			case !ref.br.Completed[i] || pass.tabular[i] != ref.tabular[i]:
				failed++
				res.check(false, "batch: query %s output at %d threads differs from the 1-thread output", in.queries[i].Name, threads)
			}
		}
		res.count(len(texts), failed)
	}

	// measure runs alternating nproc / 1-thread rounds for dur. Only
	// numbers are kept per pass, not the results, so the peak resident set
	// does not grow with the number of rounds.
	type phase struct {
		qpsN, qps1, cpuN, cpu1, pipeMS, renderMS []float64
		stats                                    []search.Stats // summed over the queries of each nproc pass
		sched                                    []search.SchedStats
	}
	measure := func(dur time.Duration) (*phase, error) {
		ph := &phase{}
		deadline := time.Now().Add(dur)
		for r := 0; time.Now().Before(deadline) || r < batchMinRounds; r++ {
			order := []int{e.nproc, 1}
			if r%2 == 1 {
				order = []int{1, e.nproc}
			}
			for _, threads := range order {
				db := dbN
				if threads == 1 {
					db = db1
				}
				cpu0 := selfCPU()
				pass, err := searchAndRender(ctx, e, db, in.queries, texts)
				if err != nil {
					return nil, err
				}
				cpuMS := float64(selfCPU()-cpu0) / 1e6 / float64(len(texts))
				check(pass, threads)
				q := float64(len(texts)) / pass.wall.Seconds()
				if threads == 1 {
					ph.qps1 = append(ph.qps1, q)
					ph.cpu1 = append(ph.cpu1, cpuMS)
					continue
				}
				ph.qpsN = append(ph.qpsN, q)
				ph.cpuN = append(ph.cpuN, cpuMS)
				ph.renderMS = append(ph.renderMS, float64(pass.render)/1e6)
				var st search.Stats
				for _, r := range pass.br.Results {
					ph.pipeMS = append(ph.pipeMS, float64(r.Stats.TotalStageNanos())/1e6)
					st.Add(r.Stats)
				}
				ph.stats = append(ph.stats, st)
				ph.sched = append(ph.sched, pass.br.Sched)
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		return ph, nil
	}

	// The end-to-end numbers come from an untraced measurement; a traced
	// run adds a second one, of half the length, with the benchmark's
	// spans on, and takes the per-layer numbers from it.
	ph, err := measure(e.seconds)
	if err != nil {
		return nil, err
	}
	rss, err := vmHWM("self")
	if err != nil {
		return nil, err
	}
	p95v, err := p95(ph.pipeMS)
	if err != nil {
		return nil, err
	}
	qpsN, qps1 := median(ph.qpsN), median(ph.qps1)
	res.setMedian("setup_s", setups)
	res.setMedian("cpu_ms_per_query", ph.cpuN)
	res.setMedian("cpu_ms_per_query_1t", ph.cpu1)
	res.set("peak_rss_mb", rss, 1)
	L := res.layer
	L["client.qps"] = qpsN
	L["client.qps_1t"] = qps1
	L["client.p50_ms"] = median(ph.pipeMS)
	L["client.p95_ms"] = p95v
	e.logf("batch: %d rounds; CPU per query %.3f ms at %d threads, %.3f ms at 1 thread (n=%d each); set-up CPU %.4f s, wall %.4f s (median of %d)",
		len(ph.qpsN), median(ph.cpuN), e.nproc, median(ph.cpu1), len(ph.cpuN), median(setups), median(setupWall), len(setups))
	e.logf("batch: wall qps %.3f at %d threads, qps_1t %.3f (n=%d each); per-query pipeline time p50 %.2f ms p95 %.2f ms (n=%d)",
		qpsN, e.nproc, qps1, len(ph.qpsN), median(ph.pipeMS), p95v, len(ph.pipeMS))
	if !e.trace {
		return res, nil
	}

	e.startTracedPhase()
	traced, err := measure(e.seconds / 2)
	if err != nil {
		return nil, err
	}
	L["blast.build_s"] = median(builds)
	L["blast.load_s"] = median(loads)
	L["blast.index_mb"] = float64(dbN.IndexSizeBytes()) / (1 << 20)
	L["blast.render_ms"] = median(traced.renderMS)
	// Engine counters and stage times per pass over the query set.
	var stageMS [obs.NumStages][]float64
	var util, busy, stall, imb []float64
	for i, st := range traced.stats {
		for s := range stageMS {
			stageMS[s] = append(stageMS[s], float64(st.StageNanos[s])/1e6)
		}
		setCoreCounts(L, st)
		sc := traced.sched[i]
		util = append(util, sc.Utilization())
		busy = append(busy, float64(sc.BusyNanos)/1e6)
		stall = append(stall, float64(sc.StallNanos)/1e6)
		if sc.MinWorkerTasks > 0 {
			imb = append(imb, float64(sc.MaxWorkerTasks)/float64(sc.MinWorkerTasks))
		}
		L["sched.tasks"] = float64(sc.Tasks)
	}
	for s := range stageMS {
		L["core."+obs.Stage(s).String()+"_ms"] = median(stageMS[s])
	}
	L["sched.busy_ms"] = median(busy)
	L["sched.stall_ms"] = median(stall)
	L["sched.utilization"] = median(util)
	if len(imb) > 0 {
		L["sched.task_imbalance"] = median(imb)
	}
	L["sched.scaling_eff"] = qpsN / (float64(e.nproc) * qps1)
	L["trace.overhead_pct"] = 100 * (qpsN/median(traced.qpsN) - 1)
	e.logf("trace: overhead %.2f%% (wall qps untraced %.3f, traced %.3f)", L["trace.overhead_pct"], qpsN, median(traced.qpsN))
	return res, nil
}

func setCoreCounts(L map[string]float64, st search.Stats) {
	L["core.hits"] = float64(st.Hits)
	L["core.pairs"] = float64(st.Pairs)
	L["core.sorted_items"] = float64(st.SortedItems)
	L["core.extensions"] = float64(st.Extensions)
	L["core.kept"] = float64(st.Kept)
	L["core.gapped_exts"] = float64(st.GappedExts)
	L["core.tracebacks"] = float64(st.Tracebacks)
	L["core.prefilter_pass"] = ratio(st.Pairs, st.Hits)
	L["core.ungapped_yield"] = ratio(st.Kept, st.Extensions)
	L["core.traceback_yield"] = ratio(st.Tracebacks, st.GappedExts)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func writeFASTA(path string, seqs []blast.Sequence) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := blast.WriteFASTA(f, seqs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
