package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"slices"
	"testing"
	"time"

	"repro/internal/model"
)

// smallRead and smallIngest are the workload shapes scaled down to run
// in a unit test.
func smallRead() readShape {
	sh := readShapeFor(2)
	sh.Users, sh.RecommendHz, sh.BatchHz, sh.FeedHz = 300, 500, 50, 100
	sh.FeedFor, sh.BarrierEvery, sh.AdoptScale = 300*time.Millisecond, 600*time.Millisecond, 1
	return sh
}

func smallIngest() ingestShape {
	sh := ingestShapeFor(2.5)
	sh.Users, sh.OpsHz = 400, 400
	return sh
}

func TestSameSeedSameInputs(t *testing.T) {
	gen := func(seed uint64) (*model.Instance, *model.Strategy, readInputs, []ingestOp) {
		in, err := buildInstance(seed, 300)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := bootPlan(in)
		if err != nil {
			t.Fatal(err)
		}
		return in, plan, genRead(in, plan, seed, smallRead()), genIngest(in, plan, seed, smallIngest())
	}
	in1, plan1, read1, ingest1 := gen(7)
	in2, plan2, read2, ingest2 := gen(7)
	if in1.NumCandidates() != in2.NumCandidates() {
		t.Fatalf("candidate counts differ: %d vs %d", in1.NumCandidates(), in2.NumCandidates())
	}
	for u := range in1.NumUsers {
		if !slices.Equal(in1.UserCandidates(model.UserID(u)), in2.UserCandidates(model.UserID(u))) {
			t.Fatalf("user %d candidates differ", u)
		}
	}
	for i := range in1.NumItems() {
		for tt := 1; tt <= in1.T; tt++ {
			if in1.Price(model.ItemID(i), model.TimeStep(tt)) != in2.Price(model.ItemID(i), model.TimeStep(tt)) {
				t.Fatalf("price of item %d at %d differs", i, tt)
			}
		}
	}
	if !slices.Equal(plan1.Triples(), plan2.Triples()) {
		t.Fatal("boot plans differ")
	}
	if !reflect.DeepEqual(read1, read2) {
		t.Fatal("serve-read streams differ for one seed")
	}
	if !reflect.DeepEqual(ingest1, ingest2) {
		t.Fatal("ingest streams differ for one seed")
	}
	_, _, read3, ingest3 := gen(8)
	if reflect.DeepEqual(read1, read3) || reflect.DeepEqual(ingest1, ingest3) {
		t.Fatal("another seed gave the same streams")
	}
}

func TestBenchmarkJSONNames(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if !slices.ContainsFunc(workloads, func(x workload) bool { return x.name == w.Name }) {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark implements %d", len(spec.Workloads), len(workloads))
	}
	for _, m := range spec.EndToEnd {
		names = append(names, m.Name)
		if !slices.Contains(e2eMetrics, m.Name) {
			t.Errorf("end-to-end metric %s is not emitted", m.Name)
		}
	}
	if len(spec.EndToEnd) != len(e2eMetrics) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the benchmark emits %d", len(spec.EndToEnd), len(e2eMetrics))
	}
	for _, m := range spec.PerLayer {
		names = append(names, m.Name)
		i := slices.IndexFunc(layerMetrics, func(l struct{ name, unit string }) bool { return l.name == m.Name })
		if i < 0 {
			t.Errorf("per-layer metric %s is not emitted", m.Name)
		} else if layerMetrics[i].unit != m.Unit {
			t.Errorf("per-layer metric %s: unit %s in BENCHMARK.json, %s emitted", m.Name, m.Unit, layerMetrics[i].unit)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the benchmark emits %d", len(spec.PerLayer), len(layerMetrics))
	}
	for _, n := range names {
		if !valid.MatchString(n) {
			t.Errorf("name %q does not match %s", n, valid)
		}
	}
}

func TestPercentileBeyondRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed, so the helper must sort
		}
		return xs
	}
	for _, c := range []struct {
		n      int
		p      float64
		want   float64
		beyond int
		ok     bool
	}{
		{1000, 0.99, 990, 10, true},
		{999, 0.99, 990, 9, false},
		{21, 0.5, 11, 10, true},
		{20, 0.5, 10, 10, true},
		{19, 0.5, 10, 9, false},
		{0, 0.5, 0, 0, false},
	} {
		v, beyond, ok := percentile(seq(c.n), c.p)
		if v != c.want || beyond != c.beyond || ok != c.ok {
			t.Errorf("percentile(n=%d, p=%v) = %v, %d beyond, ok=%v; want %v, %d, %v", c.n, c.p, v, beyond, ok, c.want, c.beyond, c.ok)
		}
	}
	if m, ok := quantileMetric(nil, 0.5, "us"); ok || m.Stat != "none" || m.Value != 0 {
		t.Errorf("no samples: got %+v ok=%v, want 0 marked none", m, ok)
	}
	m, ok := quantileMetric(seq(999), 0.99, "us")
	if ok || m.Stat != "max" || m.Value != 999 || m.Samples != 999 {
		t.Errorf("too few samples for p99: got %+v ok=%v, want the labelled maximum", m, ok)
	}
	m, ok = quantileMetric(seq(1000), 0.99, "us")
	if !ok || m.Stat != "p99" || m.Value != 990 {
		t.Errorf("1000 samples: got %+v ok=%v, want p99 = 990", m, ok)
	}
}

// TestShardedMatchesSingle runs serve-ingest and cluster-ingest on one
// seed at a small size: the final plans must be byte-identical, and
// every output check must pass on both.
func TestShardedMatchesSingle(t *testing.T) {
	if testing.Short() {
		t.Skip("drives two serving stacks for a few seconds each")
	}
	run := func(dep deployment) *runResult {
		r, err := runIngest(dep, smallIngest(), 5, 1, nil, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range r.failures {
			t.Errorf("%s: %s", dep.name, f)
		}
		return r
	}
	single, sharded := run(singleEngine), run(shardedCluster)
	if len(single.plan) == 0 {
		t.Fatal("single engine ended on an empty plan")
	}
	if !slices.Equal(single.plan, sharded.plan) {
		t.Errorf("final plans differ: %d triples single, %d sharded", len(single.plan), len(sharded.plan))
	}
	if !sameBits(single.revenue, sharded.revenue) {
		t.Errorf("plan revenue differs: %v single, %v sharded", single.revenue, sharded.revenue)
	}
}

func TestResultLineMetricsHoldValueAndUnit(t *testing.T) {
	out := output{Correct: true, Attempted: 1, Metrics: shown(map[string]Metric{
		"setup_s": {Value: 1.5, Unit: "s", Samples: 3, Stat: "median"},
	})}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(b, &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil {
		t.Errorf("result line %s, want exactly correct, attempted, failed and metrics", b)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if m := metrics["setup_s"]; len(m) != 2 || m["value"] != 1.5 || m["unit"] != "s" {
		t.Errorf("setup_s on the result line is %v, want exactly value 1.5 and unit s", m)
	}
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a few seconds")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var r *runResult
			var err error
			if w.name == "serve-read" {
				r, err = runRead(smallRead(), 3, 1, nil)
			} else {
				dep := singleEngine
				if w.name == "cluster-ingest" {
					dep = shardedCluster
				}
				r, err = runIngest(dep, smallIngest(), 3, 1, newTracer(), t.TempDir())
			}
			if err != nil {
				t.Fatal(err)
			}
			complete(r)
			for _, f := range r.failures {
				t.Error(f)
			}
			for _, m := range e2eMetrics {
				if v := r.e2e[m].Value; v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m, v)
				}
			}
			if len(r.e2e) != len(e2eMetrics) {
				t.Errorf("%d end-to-end metrics emitted, want %d", len(r.e2e), len(e2eMetrics))
			}
		})
	}
}
