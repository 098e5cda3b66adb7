package main

import (
	"errors"
	"math"
	"testing"
)

func TestP95RefusesFewSamples(t *testing.T) {
	xs := make([]float64, minTailSamples-1)
	if _, err := p95(xs); !errors.Is(err, errTooFewSamples) {
		t.Fatalf("p95 of %d samples: err %v, want errTooFewSamples", len(xs), err)
	}
	xs = make([]float64, minTailSamples)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, err := p95(xs)
	if err != nil {
		t.Fatal(err)
	}
	if want := 190.05; math.Abs(v-want) > 1e-9 {
		t.Errorf("p95 of 1..200 = %v, want %v", v, want)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if q := quantile(xs, 0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
	if q := quantile(xs, 1); q != 4 {
		t.Errorf("q1 = %v", q)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}
