// Command perfbench is the repository's benchmark. It generates its inputs
// from a seed, builds the system from the checked-out tree, drives one
// workload (batch, serve or ingest), checks every answer, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as the last
// line of standard output. See README.md.
//
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is what every workload run gets: the tree to build from, a scratch
// directory removed at exit, the daemons it starts, and its settings.
type env struct {
	root    string
	tmp     string
	bin     string // built daemon binaries
	seed    int64
	seconds time.Duration
	trace   bool
	nproc   int
	fleet   *fleet
	spans   *clientSpans // the benchmark's own spans; nil outside a traced phase
	out     *bufio.Writer
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.out, format+"\n", args...)
}

// result is one workload run's outcome.
type result struct {
	mu        sync.Mutex
	e2e       map[string]float64
	samples   map[string]int // samples behind each end-to-end value
	layer     map[string]float64
	attempted int
	failed    int
	problems  []string // failed correctness checks
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, samples: map[string]int{}, layer: map[string]float64{}}
}

// setMedian reports the median of xs as end-to-end metric name.
func (r *result) setMedian(name string, xs []float64) { r.set(name, median(xs), len(xs)) }

// set reports v, resting on n samples, as end-to-end metric name.
func (r *result) set(name string, v float64, n int) {
	r.e2e[name] = v
	r.samples[name] = n
}

// count adds operations to the run's attempted and failed totals.
func (r *result) count(attempted, failed int) {
	r.mu.Lock()
	r.attempted += attempted
	r.failed += failed
	r.mu.Unlock()
}

// check records a failed correctness check.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.mu.Lock()
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
		r.mu.Unlock()
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "batch, serve or ingest")
	seed := flag.Int64("seed", 1, "input generator seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	e := &env{root: root, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, nproc: runtime.NumCPU(), fleet: &fleet{}, out: out}
	res, err := e.execute(ctx, *workload)
	if err != nil {
		out.Flush()
		fmt.Fprintf(os.Stderr, "perfbench: %s run failed: %v\n", *workload, err)
		return 1
	}

	defs, vals := endToEnd, res.e2e
	if e.trace {
		defs, vals = perLayer, res.layer
	}
	metrics, err := emit(defs, vals, !e.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, d := range defs {
		n := ""
		if !e.trace {
			n = fmt.Sprintf(" (n=%d)", res.samples[d.name])
		}
		e.logf("metric %-24s %14.4f %s%s", d.name, metrics[d.name].Value, d.unit, n)
	}
	for _, p := range res.problems {
		e.logf("CHECK FAILED: %s", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{len(res.problems) == 0, res.attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	if len(res.problems) > 0 {
		return 1
	}
	return 0
}

// execute sets up the scratch directory and binaries, runs the workload, and
// on every path stops the daemons and removes the scratch directory.
func (e *env) execute(ctx context.Context, workload string) (*result, error) {
	var fn func(context.Context, *env) (*result, error)
	switch workload {
	case "batch":
		fn = runBatch
	case "serve":
		fn = runServe
	case "ingest":
		fn = runIngest
	default:
		return nil, fmt.Errorf("unknown workload %q (want batch, serve or ingest)", workload)
	}
	if _, err := os.Stat(filepath.Join(e.root, "blast")); err != nil {
		return nil, errors.New("not at the root of the repository (no blast/ here)")
	}
	if e.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	scratch := filepath.Join(e.root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return nil, err
	}
	e.tmp = tmp
	defer os.RemoveAll(tmp)
	defer e.fleet.stopAll()

	if workload != "batch" {
		e.bin = filepath.Join(tmp, "bin")
		if err := buildBinaries(ctx, e.root, e.bin, "mublastpd", "mublastpr"); err != nil {
			return nil, err
		}
	}
	e.logRecord(workload)
	steal0 := readSteal()
	res, err := fn(ctx, e)
	if err == nil {
		err = ctx.Err() // a signal ends the run without a result
	}
	if err != nil {
		return nil, err
	}
	if res.attempted == 0 {
		return nil, errors.New("no operation was attempted")
	}
	res.set("ok_frac", float64(res.attempted-res.failed)/float64(res.attempted), res.attempted)
	steal := stealPct(steal0, readSteal())
	res.layer["host.steal_pct"] = steal
	if e.spans != nil {
		e.writeSpans(workload)
	}
	e.logf("run: attempted %d, succeeded %d, failed %d; host.steal_pct %.2f", res.attempted, res.attempted-res.failed, res.failed, steal)
	return res, nil
}

// logRecord prints what identifies the host and the run, so a baseline and
// a candidate can be seen to share a host.
func (e *env) logRecord(workload string) {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				model = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	e.logf("record: workload=%s seed=%d seconds=%v trace=%v cpu=%q nproc=%d go=%s GOMAXPROCS=%d",
		workload, e.seed, e.seconds, e.trace, model, e.nproc, runtime.Version(), runtime.GOMAXPROCS(0))
}

// startTracedPhase turns the benchmark's own spans on. Each workload calls
// it after its untraced measurement, so end-to-end numbers never carry
// tracing cost.
func (e *env) startTracedPhase() { e.spans = &clientSpans{} }

// writeSpans saves the benchmark's own spans of a traced run under
// .bench_build/traces.
func (e *env) writeSpans(workload string) {
	dir := filepath.Join(e.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.client.jsonl", workload, e.seed))
	f, err := os.Create(path)
	if err != nil {
		return
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range e.spans.spans {
		_ = enc.Encode(s) // a write error surfaces at Flush
	}
	if err := w.Flush(); err == nil {
		e.logf("trace: benchmark spans written to %s", path)
	}
	f.Close()
}

// readSteal returns the aggregate CPU line of /proc/stat: steal and total
// jiffies.
func readSteal() [2]float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]float64{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var total, steal float64
	for i, s := range f[1:] {
		v, _ := strconv.ParseFloat(s, 64)
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return [2]float64{steal, total}
}

func stealPct(a, b [2]float64) float64 {
	if b[1] <= a[1] {
		return 0
	}
	return 100 * (b[0] - a[0]) / (b[1] - a[1])
}
