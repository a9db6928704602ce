package revenue_test

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/revenue"
	"repro/internal/testgen"
)

// randomResidual builds a testgen instance and a residual of it under
// random feedback: adopted classes, exposure histories, drawn-down
// stock and an advanced clock, then one item repriced from a random
// step the way ScalePrice does it.
func randomResidual(rng *dist.RNG, users int) *model.Instance {
	in := testgen.Random(rng, testgen.Params{
		Users: users, Items: 8, Classes: 3, T: 5, K: 2,
		MaxCap: 6, CandProb: 0.5, MinPrice: 1, MaxPrice: 100,
	})
	fb := planner.Feedback{
		AdoptedClass: make(map[model.UserID]map[model.ClassID]bool),
		Exposures:    make(map[model.UserID]map[model.ClassID][]model.TimeStep),
		Stock:        make([]int, in.NumItems()),
		Now:          model.TimeStep(1 + rng.Intn(2)),
	}
	for i := range fb.Stock {
		fb.Stock[i] = in.Capacity(model.ItemID(i)) - rng.Intn(2)
	}
	for u := 0; u < users; u++ {
		uid := model.UserID(u)
		c := model.ClassID(rng.Intn(3))
		switch rng.Intn(3) {
		case 0:
			fb.AdoptedClass[uid] = map[model.ClassID]bool{c: true}
		case 1:
			fb.Exposures[uid] = map[model.ClassID][]model.TimeStep{c: {1, model.TimeStep(1 + rng.Intn(3))}}
		}
	}
	res := planner.Residual(in, fb)
	item := model.ItemID(rng.Intn(res.NumItems()))
	for t := model.TimeStep(1 + rng.Intn(res.T)); int(t) <= res.T; t++ {
		res.SetPrice(item, t, res.Price(item, t)*1.7)
	}
	return res
}

// randomPlan picks each candidate of in with probability frac, ignoring
// the constraints: revenue is defined on any candidate set.
func randomPlan(rng *dist.RNG, in *model.Instance, frac float64) *model.Plan {
	p := in.NewPlan()
	for id := 0; id < in.NumCands(); id++ {
		if rng.Float64() < frac {
			p.Add(model.CandID(id))
		}
	}
	return p
}

// stripe keeps the triples of s whose user is in stripe k of n.
func stripe(s *model.Strategy, k, n int) *model.Strategy {
	out := model.NewStrategy()
	for _, z := range s.Triples() {
		if int(z.U)%n == k {
			out.Add(z)
		}
	}
	return out
}

// TestPlanSharesMatchRevenueBits pins the dense kernel to the map-based
// Revenue oracle bit for bit, on empty and random plans over residuals
// with exposures, adoptions and a repriced item: the whole-plan total,
// and each stripe's share for n ∈ {1, 2, 4}.
func TestPlanSharesMatchRevenueBits(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := dist.NewRNG(seed)
		res := randomResidual(rng, 4+rng.Intn(40))
		for _, frac := range []float64{0, 0.2, 0.6, 1} {
			p := randomPlan(rng, res, frac)
			s := p.Strategy()
			want := revenue.Revenue(res, s)
			if got := revenue.PlanRevenue(p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d frac %v: PlanRevenue %v != Revenue %v", seed, frac, got, want)
			}
			for _, n := range []int{1, 2, 4} {
				total, shares := revenue.PlanShares(p, n)
				if math.Float64bits(total) != math.Float64bits(want) {
					t.Fatalf("seed %d frac %v n %d: total %v != Revenue %v", seed, frac, n, total, want)
				}
				for k, got := range shares {
					if w := revenue.Revenue(res, stripe(s, k, n)); math.Float64bits(got) != math.Float64bits(w) {
						t.Fatalf("seed %d frac %v n %d: share %d = %v, Revenue of the stripe = %v", seed, frac, n, k, got, w)
					}
				}
			}
		}
	}
}
