package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// minTailSamples is the fewest samples a p95 may rest on: with 200 samples
// ten lie beyond the 95th percentile, so one outlier cannot set it alone.
const minTailSamples = 200

var errTooFewSamples = errors.New("too few samples for p95")

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the same rule as numpy's default). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// p95 refuses to report a tail percentile from fewer than minTailSamples
// samples.
func p95(xs []float64) (float64, error) {
	if len(xs) < minTailSamples {
		return 0, fmt.Errorf("%w: have %d, need %d", errTooFewSamples, len(xs), minTailSamples)
	}
	return quantile(xs, 0.95), nil
}
