package main

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. Every workload reports
// every one of them; README.md gives each workload's definition.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_query", "ms"},
	{"cpu_ms_per_query_1t", "ms"},
	{"ok_frac", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's single-layer metrics. A layer a workload
// never reaches (the router on batch, say) reports 0.
var perLayer = []metricDef{
	{"blast.build_s", "s"}, {"blast.load_s", "s"}, {"blast.index_mb", "MB"}, {"blast.render_ms", "ms"},

	{"core.hit_detect_ms", "ms"}, {"core.prefilter_ms", "ms"}, {"core.sort_ms", "ms"},
	{"core.ungapped_ms", "ms"}, {"core.gapped_ms", "ms"}, {"core.traceback_ms", "ms"},
	{"core.hits", "count"}, {"core.pairs", "count"}, {"core.sorted_items", "count"},
	{"core.extensions", "count"}, {"core.kept", "count"}, {"core.gapped_exts", "count"},
	{"core.tracebacks", "count"},
	{"core.prefilter_pass", "ratio"}, {"core.ungapped_yield", "ratio"}, {"core.traceback_yield", "ratio"},

	{"sched.tasks", "count"}, {"sched.busy_ms", "ms"}, {"sched.stall_ms", "ms"},
	{"sched.utilization", "ratio"}, {"sched.task_imbalance", "ratio"}, {"sched.scaling_eff", "ratio"},

	{"server.edge_ms", "ms"}, {"server.admission_ms", "ms"}, {"server.queue_wait_ms", "ms"},
	{"server.search_ms", "ms"}, {"server.self_ms", "ms"},
	{"server.shed", "count"}, {"server.timed_out", "count"},
	{"server.gc_pause_ms", "ms"}, {"server.heap_mb", "MB"},

	{"router.edge_ms", "ms"}, {"router.scatter_ms", "ms"}, {"router.shard_ms", "ms"},
	{"router.merge_ms", "ms"}, {"router.self_ms", "ms"}, {"router.shard_skew_ms", "ms"},
	{"router.attempts", "count"}, {"router.retries", "count"}, {"router.hedges", "count"},
	{"router.partial", "count"},
	{"wire.rpc_ms", "ms"},

	{"store.append_ms", "ms"}, {"store.ingests", "count"}, {"store.ingests_shed", "count"},
	{"store.tiers", "count"},

	{"client.qps", "queries/s"}, {"client.qps_1t", "queries/s"},
	{"client.p50_ms", "ms"}, {"client.p95_ms", "ms"},
	{"client.late_ms", "ms"}, {"client.unattributed_ms", "ms"},
	{"host.steal_pct", "%"},
	{"trace.overhead_pct", "%"},
}

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit builds the metrics object for the result line: every defined
// metric, in definition order, and nothing else. A metric the workload
// should have set but did not is an error, except per-layer metrics of
// layers the workload does not reach, which are 0.
func emit(defs []metricDef, vals map[string]float64, requireAll bool) (map[string]metricOut, error) {
	out := make(map[string]metricOut, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && requireAll {
			missing = append(missing, d.name)
		}
		out[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	var extra []string
	for name := range vals {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(missing) > 0 || len(extra) > 0 {
		return nil, fmt.Errorf("metrics: missing [%s], undefined [%s]", strings.Join(missing, " "), strings.Join(extra, " "))
	}
	return out, nil
}
