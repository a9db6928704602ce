// Command benchmark is the serving ledger of revmaxd: a seeded,
// single-process load generator that drives the real serving stack
// (serve.Engine, cluster.Cluster and their HTTP handlers) through public
// entry points and prints end-to-end metrics, or, with --trace 1,
// per-layer metrics from spans recorded around every call into a layer.
//
//	benchmark --workload serve-read --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The run record (machine, op
// counts, generator lateness, checks) goes to standard error and to
// .bench_build/records/. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workDir holds everything a run writes, relative to the directory the
// benchmark runs in.
const workDir = ".bench_build"

// timeout bounds a whole invocation; a hung run exits non-zero without
// printing a result.
const timeout = 170 * time.Second

// lagLimitUS flags a run whose generator ran late: when the p99 of its
// own lateness exceeds this (a few timer slacks), its offered load was
// not what the schedule says.
const lagLimitUS = 5000

// workload is one named traffic mix.
type workload struct {
	name   string
	setups int // set-ups per untraced pass (setup_s is their median)
	run    func(seconds float64, seed uint64, setups int, tr *tracer, tmp string) (*runResult, error)
}

// e2eMetrics are the end-to-end metrics every untraced run prints.
var e2eMetrics = []string{"setup_s", "recommend_p50_us", "batch_p50_us", "adopt_ack_p50_us",
	"adopt_visible_p50_ms", "success_frac", "plan_revenue", "heap_live_mb"}

var workloads = []workload{
	{
		name:   "serve-read",
		setups: 3,
		run: func(seconds float64, seed uint64, setups int, tr *tracer, _ string) (*runResult, error) {
			return runRead(readShapeFor(seconds), seed, setups, tr)
		},
	},
	{
		name:   "serve-ingest",
		setups: 5,
		run: func(seconds float64, seed uint64, setups int, tr *tracer, tmp string) (*runResult, error) {
			return runIngest(singleEngine, ingestShapeFor(seconds), seed, setups, tr, tmp)
		},
	},
	{
		name:   "cluster-ingest",
		setups: 5,
		run: func(seconds float64, seed uint64, setups int, tr *tracer, tmp string) (*runResult, error) {
			return runIngest(shardedCluster, ingestShapeFor(seconds), seed, setups, tr, tmp)
		},
	},
}

// readShapeFor is serve-read's load: 24 000 users (~600k candidates),
// 4000 recommends and 200 batches a second, and a 3 s feedback cycle of
// one second of feeds at 200/s (an adoption coin of q/10) then a barrier.
func readShapeFor(seconds float64) readShape {
	return readShape{Users: 24000, Seconds: seconds, RecommendHz: 4000, BatchHz: 200,
		FeedHz: 200, FeedFor: time.Second, AdoptScale: 0.1, BarrierEvery: 3 * time.Second}
}

// ingestShapeFor is the ingest workloads' load: 8 000 users (~200k
// candidates), 500 stream slots a second with every 4th a read (single
// and batch recommends in turn); each horizon step buys for its first
// 5/16 and browses for the rest, with a barrier a quarter into the step.
func ingestShapeFor(seconds float64) ingestShape {
	return ingestShape{Users: 8000, Seconds: seconds, OpsHz: 500, ReadEvery: 4,
		BuyShare: 0.3125, BarrierShare: 0.25}
}

// layerMetrics are the per-layer metrics every traced run prints, with
// their units. A metric a workload does no work for reports 0 with 0
// samples.
var layerMetrics = []struct{ name, unit string }{
	{"serve.recommend_call_p50_ns", "ns"},
	{"serve.recommend_call_p99_ns", "ns"},
	{"serve.batch_call_p50_us", "us"},
	{"serve.flush_p50_ms", "ms"},
	{"serve.flush_p99_ms", "ms"},
	{"serve.replans", "count"},
	{"serve.replans_per_barrier", "count"},
	{"http.adopt_server_p50_us", "us"},
	{"http.adopt_server_p99_us", "us"},
	{"http.batch_server_p50_us", "us"},
	{"http.transport_p50_us", "us"},
	{"planner.feedback_p50_ms", "ms"},
	{"planner.residual_p50_ms", "ms"},
	{"planner.residual_cands_p50", "count"},
	{"solver.solve_p50_ms", "ms"},
	{"solver.selections_p50", "count"},
	{"solver.recomputations_p50", "count"},
	{"solver.useful_frac", "frac"},
	{"store.wal_records_per_event", "count"},
	{"store.sync_p50_ms", "ms"},
	{"store.replay_ms", "ms"},
	{"store.replay_records", "count"},
	{"cluster.flush_p50_ms", "ms"},
	{"cluster.flush_p99_ms", "ms"},
	{"cluster.shard_replans_per_barrier", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_frac", "frac"},
	{"go.gc_pause_p99_us", "us"},
	{"go.alloc_mb", "MB"},
	{"bench.gen_lag_p99_us", "us"},
	{"bench.trace_overhead_frac", "frac"},
}

// output is the last line of standard output. Its metrics hold only a
// value and a unit; sample counts and statistics go to the run record.
type output struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]shownVal `json:"metrics"`
}

type shownVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func shown(ms map[string]Metric) map[string]shownVal {
	out := make(map[string]shownVal, len(ms))
	for name, m := range ms {
		out[name] = shownVal{Value: m.Value, Unit: m.Unit}
	}
	return out
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name (serve-read, serve-ingest, cluster-ingest)")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per pass")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced pass")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: benchmark --workload serve-read|serve-ingest|cluster-ingest --seed N --seconds S --trace 0|1\n")
		return 2
	}
	time.AfterFunc(timeout, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s seed %d exceeded %v\n", w.name, *seed, timeout)
		os.Exit(3)
	})
	tmp := filepath.Join(workDir, "tmp")
	for _, d := range []string{tmp, filepath.Join(workDir, "records"), filepath.Join(workDir, "traces")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}

	// The untraced pass gives the end-to-end metrics. A traced
	// invocation runs one untraced and one traced pass of the same seed
	// and reports per-layer metrics from the traced one; their
	// difference is the tracing overhead.
	setups := w.setups
	if *trace == 1 {
		setups = 1
	}
	plain, err := w.run(*seconds, *seed, setups, nil, tmp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	finish(plain, w, *seed, *seconds)
	res, metrics := plain, plain.e2e
	if *trace == 1 {
		tr := newTracer()
		traced, err := w.run(*seconds, *seed, setups, tr, tmp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s traced: %v\n", w.name, err)
			return 1
		}
		finish(traced, w, *seed, *seconds)
		traced.failures = append(plain.failures, traced.failures...)
		if !sameBits(traced.revenue, plain.revenue) {
			traced.fail("plan_revenue differs between the untraced (%v) and traced (%v) pass", plain.revenue, traced.revenue)
		}
		base, _, _ := percentile(plain.primary, 0.5)
		with, _, _ := percentile(traced.primary, 0.5)
		traced.layer["bench.trace_overhead_frac"] = ratio(with-base, base, "frac", len(traced.primary))
		fillLayers(traced.layer)
		path := filepath.Join(workDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		if err := tr.write(path); err != nil {
			traced.fail("%v", err)
		}
		traced.record["trace_file"] = path
		res, metrics = traced, traced.layer
	}
	attempted, failed := res.totals()
	out := output{Correct: len(res.failures) == 0, Attempted: attempted, Failed: failed, Metrics: shown(metrics)}
	writeRecord(res, w, *seed, *seconds, *trace, out, metrics)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// finish completes a pass and checks that plan_revenue repeats across
// runs of the same workload, seed and length.
func finish(r *runResult, w *workload, seed uint64, seconds float64) {
	complete(r)
	checkRepeat(r, filepath.Join(workDir, "revenue"), fmt.Sprintf("%s-seed%d-%gs", w.name, seed, seconds), r.revenue)
}

// complete adds the metrics every pass derives from its counts, and
// fails the pass if an operation failed or a metric is missing.
func complete(r *runResult) {
	attempted, failed := r.totals()
	r.e2e["success_frac"] = ratio(float64(attempted-failed), float64(attempted), "frac", attempted)
	r.e2e["plan_revenue"] = Metric{Value: r.revenue, Unit: "revenue", Samples: 1, Stat: "value"}
	if failed > 0 {
		r.fail("%d of %d operations failed", failed, attempted)
	}
	r.layerQuantile("bench.gen_lag_p99_us", append([]float64(nil), r.lagUS...), 0.99, "us")
	lag, _, _ := percentile(append([]float64(nil), r.lagUS...), 0.99)
	r.record["generator_lag_p99_us"] = lag
	r.record["generator_behind"] = lag > lagLimitUS
	for _, m := range e2eMetrics {
		if _, ok := r.e2e[m]; !ok {
			r.fail("end-to-end metric %s was not measured", m)
		}
	}
}

// fillLayers gives every per-layer metric the workload did no work for
// a zero value with zero samples.
func fillLayers(m map[string]Metric) {
	for _, l := range layerMetrics {
		if _, ok := m[l.name]; !ok {
			m[l.name] = Metric{Unit: l.unit, Stat: "none"}
		}
	}
}

// writeRecord prints the run record to standard error and keeps a copy
// under workDir/records.
func writeRecord(r *runResult, w *workload, seed uint64, seconds float64, trace int, out output, metrics map[string]Metric) {
	rec := r.record
	rec["workload"] = w.name
	rec["seed"] = seed
	rec["seconds"] = seconds
	rec["trace"] = trace
	rec["cpus"] = runtime.NumCPU()
	rec["gomaxprocs"] = runtime.GOMAXPROCS(0)
	rec["go_version"] = runtime.Version()
	rec["commit"] = envOr("BENCH_COMMIT", "unknown")
	rec["source_digest"] = envOr("BENCH_SOURCE_DIGEST", "unknown")
	rec["ops"] = r.opCounts()
	rec["checks_failed"] = r.failures
	rec["result"] = out
	rec["metrics"] = metrics
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: record:", err)
		return
	}
	fmt.Fprintln(os.Stderr, string(b))
	path := filepath.Join(workDir, "records", fmt.Sprintf("%s-seed%d-trace%d.json", w.name, seed, trace))
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: record:", err)
	}
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}
