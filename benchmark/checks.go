package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/revenue"
	"repro/internal/serve"
	"repro/internal/solver"
)

// servedView is what the output checks read from a serving engine or
// cluster after the final barrier.
type servedView interface {
	Strategy() *model.Strategy
	Recommend(u model.UserID, t model.TimeStep) ([]serve.Recommendation, error)
	Stock(i model.ItemID) (int, error)
	Instance() *model.Instance
	Now() model.TimeStep
}

// ledger is the benchmark's own account of the adoptions the program
// accepted, kept independently of the program's state.
type ledger struct {
	adopted  map[model.UserID]map[model.ClassID]bool
	adopters []model.UserID
}

func newLedger() *ledger { return &ledger{adopted: map[model.UserID]map[model.ClassID]bool{}} }

func (l *ledger) accept(in *model.Instance, ev serve.Event) {
	if !ev.Adopted {
		return
	}
	m := l.adopted[ev.User]
	if m == nil {
		m = map[model.ClassID]bool{}
		l.adopted[ev.User] = m
		l.adopters = append(l.adopters, ev.User)
	}
	m[in.Class(ev.Item)] = true
}

// sampledUsers is how many adopters and how many random users the
// recommendation check looks up.
const sampledUsers = 1000

// checkServed verifies the final plan and sampled recommendations:
// the plan passes CheckValid on the residual problem (remaining stock,
// adopted classes, remaining horizon), and no recommendation gives a
// positive probability for a class the user adopted or an item out of
// stock.
func checkServed(r *runResult, v servedView, led *ledger, seed uint64) {
	in := v.Instance()
	stock := make([]int, in.NumItems())
	for i := range stock {
		n, err := v.Stock(model.ItemID(i))
		if err != nil {
			r.fail("stock of item %d: %v", i, err)
			return
		}
		stock[i] = n
	}
	now := v.Now()
	residual := planner.Residual(in, planner.Feedback{AdoptedClass: led.adopted, Stock: stock, Now: now})
	if err := residual.CheckValid(v.Strategy()); err != nil {
		r.fail("final plan fails CheckValid: %v", err)
	}
	rng := newRNG(seed, 0xC4EC)
	users := led.adopters[:min(len(led.adopters), sampledUsers)]
	users = append(users[:len(users):len(users)], randomUsers(rng, sampledUsers, in.NumUsers)...)
	bad := 0
	for _, u := range users {
		for t := now; int(t) <= in.T; t++ {
			recs, err := v.Recommend(u, t)
			if err != nil {
				r.fail("recommend user %d at %d: %v", u, t, err)
				return
			}
			for _, rec := range recs {
				if rec.Prob > 0 && (led.adopted[u][in.Class(rec.Item)] || stock[rec.Item] <= 0) {
					bad++
				}
			}
		}
	}
	if bad > 0 {
		r.fail("%d sampled recommendations give Prob > 0 for an adopted class or an out-of-stock item", bad)
	}
}

// checkFromScratch verifies that a single engine's final plan equals a
// from-scratch solve of the residual of its exported feedback: same
// triples, same revenue bits. It also checks the engine holds every
// adoption the ledger says it accepted.
func checkFromScratch(r *runResult, e *serve.Engine, led *ledger) {
	fb, err := e.Feedback()
	if err != nil {
		r.fail("feedback export: %v", err)
		return
	}
	for u, classes := range led.adopted {
		for c := range classes {
			if !fb.AdoptedClass[u][c] {
				r.fail("accepted adoption of class %d by user %d is missing from the engine's feedback", c, u)
				return
			}
		}
	}
	residual := planner.Residual(e.Instance(), fb)
	res, err := solver.Solve(context.Background(), residual, solver.Options{})
	if err != nil {
		r.fail("from-scratch solve: %v", err)
		return
	}
	if !slices.Equal(e.Strategy().Triples(), res.Strategy.Triples()) {
		r.fail("final plan (%d triples) differs from a from-scratch solve (%d triples)",
			e.Strategy().Len(), res.Strategy.Len())
	}
	if got, want := e.Stats().PlanRevenue, revenue.Revenue(residual, res.Strategy); !sameBits(got, want) {
		r.fail("final plan revenue %v differs from a from-scratch solve's %v", got, want)
	}
}

// checkRepeat verifies plan_revenue repeats exactly for one (workload,
// seed, length) across runs: the first run records it under dir, later
// runs compare.
func checkRepeat(r *runResult, dir, key string, rev float64) {
	path := filepath.Join(dir, key)
	bits := strconv.FormatUint(math.Float64bits(rev), 16)
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if got := strings.TrimSpace(string(prev)); got != bits {
			r.fail("plan_revenue %v does not repeat an earlier run of %s (bits %s, now %s)", rev, key, got, bits)
		}
	case os.IsNotExist(err):
		if err := os.MkdirAll(dir, 0o755); err != nil {
			r.fail("record plan revenue: %v", err)
			return
		}
		if err := os.WriteFile(path, []byte(bits+"\n"), 0o644); err != nil {
			r.fail("record plan revenue: %v", err)
		}
	default:
		r.fail("read recorded plan revenue: %v", err)
	}
}
