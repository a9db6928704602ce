package main

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/model"
)

// runResult is what one pass of a workload produced.
type runResult struct {
	e2e   map[string]Metric // end-to-end metrics (meaningful untraced only)
	layer map[string]Metric // per-layer metrics (traced pass only)

	attempted [numOpKinds]int
	failed    [numOpKinds]int

	// failures lists every output check or work check that failed.
	failures []string
	// primary holds the latencies (µs) of the workload's main operation,
	// compared across the untraced and traced pass for the tracing
	// overhead.
	primary []float64
	revenue float64
	plan    []model.Triple // the final plan, canonical order
	lagUS   []float64
	record  map[string]any
}

func newResult() *runResult {
	return &runResult{e2e: map[string]Metric{}, layer: map[string]Metric{}, record: map[string]any{}}
}

func (r *runResult) op(kind opKind, err error) {
	r.attempted[kind]++
	if err != nil {
		r.failed[kind]++
	}
}

func (r *runResult) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *runResult) totals() (attempted, failed int) {
	for k := range r.attempted {
		attempted += r.attempted[k]
		failed += r.failed[k]
	}
	return attempted, failed
}

// opCounts is the per-kind attempted/failed table of the run record.
func (r *runResult) opCounts() map[string][2]int {
	out := map[string][2]int{}
	for k, n := range r.attempted {
		if n > 0 {
			out[opNames[k]] = [2]int{n, r.failed[k]}
		}
	}
	return out
}

// e2eQuantile records an end-to-end percentile; a percentile without
// ten samples beyond it fails the run instead of passing vacuously.
func (r *runResult) e2eQuantile(name string, xs []float64, p float64, unit string) {
	xs = append([]float64(nil), xs...)
	r.shape(name, xs)
	m, ok := quantileMetric(xs, p, unit)
	if !ok {
		r.fail("%s: only %d samples, fewer than %d beyond the percentile", name, len(xs), minBeyond)
	}
	r.e2e[name] = m
}

// layerQuantile records a per-layer percentile, falling back to the
// labelled maximum when the samples are too few.
func (r *runResult) layerQuantile(name string, xs []float64, p float64, unit string) {
	r.layer[name], _ = quantileMetric(xs, p, unit)
}

func usSince(from, to time.Time) float64 { return float64(to.Sub(from)) / float64(time.Microsecond) }

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// shape records a latency distribution's profile in the run record, so
// a reader sees where the tail starts, not only the reported median.
// xs is sorted in place.
func (r *runResult) shape(name string, xs []float64) {
	prof := map[string]float64{"samples": float64(len(xs))}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.98, 0.99, 0.999} {
		if v, _, ok := percentile(xs, q); ok {
			prof[strconv.FormatFloat(q, 'f', -1, 64)] = v
		}
	}
	if len(xs) > 0 {
		prof["max"] = xs[len(xs)-1]
	}
	shapes, _ := r.record["distributions"].(map[string]any)
	if shapes == nil {
		shapes = map[string]any{}
		r.record["distributions"] = shapes
	}
	shapes[name] = prof
}
