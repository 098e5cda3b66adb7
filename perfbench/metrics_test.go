package main

import (
	"encoding/json"
	"os"
	"testing"
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return &f
}

func TestNamesAreValidAndUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if !nameRe.MatchString(d.name) {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]+ (<= 64, leading letter or digit)", d.name)
			}
			if seen[d.name] {
				t.Errorf("metric name %q used twice", d.name)
			}
			seen[d.name] = true
		}
	}
	for _, w := range readBenchmarkFile(t).Workloads {
		if !nameRe.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q invalid or reused", w.Name)
		}
		seen[w.Name] = true
		if _, err := generate(w.Name, 1); err != nil {
			t.Errorf("workload %q in BENCHMARK.json: %v", w.Name, err)
		}
	}
}

// Every metric BENCHMARK.json names is one the benchmark emits, with the
// same unit, and the other way round.
func TestBenchmarkFileMatchesEmittedMetrics(t *testing.T) {
	f := readBenchmarkFile(t)
	check := func(kind string, defs []metricDef, names, units []string) {
		if len(names) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark emits %d", kind, len(names), len(defs))
		}
		for i := range names {
			if i < len(defs) && (names[i] != defs[i].name || units[i] != defs[i].unit) {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], benchmark %s [%s]", kind, i, names[i], units[i], defs[i].name, defs[i].unit)
			}
		}
	}
	var n, u []string
	for _, m := range f.EndToEnd {
		n, u = append(n, m.Name), append(u, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", endToEnd, n, u)
	n, u = nil, nil
	for _, m := range f.PerLayer {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	check("per_layer", perLayer, n, u)
}

func TestEmitRequiresExactlyTheDefinedMetrics(t *testing.T) {
	defs := []metricDef{{"a", "s"}, {"b", "ms"}}
	if _, err := emit(defs, map[string]float64{"a": 1}, true); err == nil {
		t.Error("emit accepted a missing metric")
	}
	if _, err := emit(defs, map[string]float64{"a": 1, "b": 2, "c": 3}, true); err == nil {
		t.Error("emit accepted an undefined metric")
	}
	out, err := emit(defs, map[string]float64{"a": 1}, false)
	if err != nil || len(out) != 2 || out["b"].Value != 0 || out["b"].Unit != "ms" {
		t.Errorf("per-layer emit: %v %v", out, err)
	}
}
