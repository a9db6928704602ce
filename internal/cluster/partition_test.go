package cluster

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/revenue"
	"repro/internal/solver"
)

// sliceStrategy is the map-based reference slicer installGlobal is
// checked against: it splits s by owning shard with users re-keyed to
// local IDs, and prices each slice with a from-scratch Revenue of its
// global triples.
func sliceStrategy(residual *model.Instance, s *model.Strategy, n int) []shardPlan {
	plans := make([]shardPlan, n)
	owned := make([]*model.Strategy, n)
	for k := range plans {
		plans[k].s = model.NewStrategy()
		owned[k] = model.NewStrategy()
	}
	for _, z := range s.Triples() {
		k := shardOf(z.U, n)
		plans[k].s.Add(model.Triple{U: localID(z.U, n), I: z.I, T: z.T})
		owned[k].Add(z)
	}
	for k := range plans {
		plans[k].rev = revenue.Revenue(residual, owned[k])
	}
	return plans
}

// installOnBareCluster runs installGlobal on a cluster shell with n
// shards and no engines.
func installOnBareCluster(residual *model.Instance, s *model.Strategy, p *model.Plan, n int) *Cluster {
	c := &Cluster{n: n, co: newCoordinator(n, residual.NumItems(), func(int) int64 { return 0 })}
	c.installGlobal(residual, s, p)
	return c
}

// assertSlicesMatchOracle compares installGlobal's slices and revenue
// with sliceStrategy and Revenue: same triples in the same order, same
// bits.
func assertSlicesMatchOracle(t *testing.T, label string, residual *model.Instance, s *model.Strategy, p *model.Plan, n int) {
	t.Helper()
	c := installOnBareCluster(residual, s, p, n)
	if got, want := math.Float64frombits(c.revBits.Load()), revenue.Revenue(residual, s); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s n=%d: plan revenue %v, Revenue %v", label, n, got, want)
	}
	for k, want := range sliceStrategy(residual, s, n) {
		got := c.installed[k]
		if !reflect.DeepEqual(got.s.Triples(), want.s.Triples()) {
			t.Errorf("%s n=%d shard %d: slice has %d triples, oracle %d", label, n, k, got.s.Len(), want.s.Len())
		}
		if math.Float64bits(got.rev) != math.Float64bits(want.rev) {
			t.Errorf("%s n=%d shard %d: revenue %v, oracle %v", label, n, k, got.rev, want.rev)
		}
	}
}

// TestSlicingMatchesMapOracle pins the dense hand-off to the map-based
// slicer: G-Greedy plans on residuals under random feedback, sliced
// for 1–4 shards, and a strategy with a non-candidate triple, which
// takes the map-based fallback.
func TestSlicingMatchesMapOracle(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		in := testInstance(t, 60, seed)
		rng := dist.NewRNG(seed + 100)
		fb := planner.Feedback{
			AdoptedClass: make(map[model.UserID]map[model.ClassID]bool),
			Exposures:    make(map[model.UserID]map[model.ClassID][]model.TimeStep),
			Now:          model.TimeStep(1 + rng.Intn(2)),
		}
		for u := 0; u < in.NumUsers; u += 3 {
			c := model.ClassID(rng.Intn(4))
			fb.AdoptedClass[model.UserID(u)] = map[model.ClassID]bool{c: true}
			fb.Exposures[model.UserID(u+1)] = map[model.ClassID][]model.TimeStep{c: {1}}
		}
		residual := planner.Residual(in, fb)
		res, err := solver.Solve(context.Background(), residual, solver.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= 4; n++ {
			assertSlicesMatchOracle(t, "g-greedy", residual, res.Strategy, res.Plan, n)
		}
	}

	// A user's candidates plus one triple that is no candidate at all.
	in := testInstance(t, 24, 7)
	s := model.NewStrategy()
	for _, c := range in.UserCandidates(3) {
		s.Add(c.Triple)
	}
	for i := 0; i < in.NumItems(); i++ {
		z := model.Triple{U: 5, I: model.ItemID(i), T: 1}
		if _, ok := in.CandIDOf(z); !ok {
			s.Add(z)
			break
		}
	}
	if _, ok := in.PlanOf(s); ok {
		t.Fatal("fixture has no non-candidate triple")
	}
	for n := 1; n <= 4; n++ {
		assertSlicesMatchOracle(t, "non-candidate", in, s, nil, n)
	}
}
