package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// percentile is reported: a p99 needs at least 1000 samples, a p50 at
// least 21. Fewer samples give a vacuous tail that one outlier decides.
const minBeyond = 10

// Metric is one reported number. Samples is how many observations it
// summarizes; Stat says what the value is ("p50", "p99", "max",
// "median", "count", "ratio", "value").
type Metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Stat    string  `json:"stat"`
}

// percentile returns the nearest-rank p-quantile of xs (0 < p < 1) and
// how many samples rank above it. ok is false when fewer than minBeyond
// samples lie beyond it, in which case the value must not be reported
// as that percentile. xs is sorted in place.
func percentile(xs []float64, p float64) (v float64, beyond int, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, 0, false
	}
	sort.Float64s(xs)
	idx := int(math.Ceil(p*float64(n))) - 1
	idx = max(0, min(idx, n-1))
	beyond = n - 1 - idx
	return xs[idx], beyond, beyond >= minBeyond
}

// quantileMetric summarizes xs as its p-quantile. When the ≥10-beyond
// rule is not met it reports the largest sample instead (an upper bound
// on every percentile) and says so in Stat; with no samples the value is
// 0 and Stat is "none". End-to-end callers treat the fallback as a
// failed run.
func quantileMetric(xs []float64, p float64, unit string) (Metric, bool) {
	v, _, ok := percentile(xs, p)
	if ok {
		return Metric{Value: v, Unit: unit, Samples: len(xs), Stat: statName(p)}, true
	}
	if len(xs) == 0 {
		return Metric{Unit: unit, Stat: "none"}, false
	}
	return Metric{Value: xs[len(xs)-1], Unit: unit, Samples: len(xs), Stat: "max"}, false // percentile sorted xs
}

func statName(p float64) string {
	switch p {
	case 0.5:
		return "p50"
	case 0.99:
		return "p99"
	}
	return "p?"
}

// median is the middle of a handful of repeated measurements (set-up,
// recovery); it is not a distribution percentile, so the ≥10-beyond rule
// does not apply and Stat says "median".
func median(xs []float64, unit string) Metric {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	m := Metric{Unit: unit, Samples: len(ys), Stat: "median"}
	switch n := len(ys); {
	case n == 0:
	case n%2 == 1:
		m.Value = ys[n/2]
	default:
		m.Value = (ys[n/2-1] + ys[n/2]) / 2
	}
	return m
}

func count(v float64, unit string, samples int) Metric {
	return Metric{Value: v, Unit: unit, Samples: samples, Stat: "count"}
}

// ratio reports num/den, or 0 with Stat "none" when den is 0.
func ratio(num, den float64, unit string, samples int) Metric {
	if den == 0 {
		return Metric{Unit: unit, Samples: samples, Stat: "none"}
	}
	return Metric{Value: num / den, Unit: unit, Samples: samples, Stat: "ratio"}
}
