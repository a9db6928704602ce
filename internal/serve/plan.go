package serve

import (
	"cmp"
	"slices"
	"sort"
	"time"

	"repro/internal/model"
)

// planEntry is one planned recommendation for a user, with the primitive
// adoption probability and price cached so the serving hot path never
// touches the instance's binary-searched candidate lists.
type planEntry struct {
	t     model.TimeStep
	item  model.ItemID
	class model.ClassID
	beta  float64
	q     float64
	price float64
}

// plan is an immutable snapshot of a planned strategy, indexed for O(k)
// per-(user, t) lookup. Readers load it through an atomic.Pointer; a
// replan builds a fresh plan and swaps the pointer, so lookups never
// block on planning (double buffering).
type plan struct {
	revision int64
	strategy *model.Strategy
	// perUser[u] holds u's planned entries sorted by (t, item); k and T
	// are small, so binary search on t plus a short scan is O(log + k).
	perUser [][]planEntry
	// revenue is the expected residual revenue of the strategy at plan
	// time (Definition 2 on the residual instance).
	revenue float64
	// plannedFrom is the first time step the plan conditions on (the
	// engine clock when the plan was computed).
	plannedFrom model.TimeStep
	// installedAt is when the plan was published — the base of the
	// revmaxd_plan_staleness_seconds gauge.
	installedAt time.Time
}

// buildPlan indexes s for serving. Primitive probabilities are read from
// the *original* instance, not the residual one, because the serving
// path re-applies the observed saturation memory per request; storing
// residual q's would double-count it.
//
// The strategy's canonical (user, item, time) order groups each user's
// triples into one run. A run is put in (time, item) order and merged
// against the user's time-ordered candidate index, so each entry costs
// an array read instead of a binary-searched Q lookup. A triple that is
// not a candidate (TopRA's q=0 repeats) is served with q = 0, the value
// Instance.Q reports for it.
func buildPlan(in *model.Instance, s *model.Strategy, revision int64, from model.TimeStep, revenue float64) *plan {
	p := &plan{
		revision:    revision,
		strategy:    s,
		perUser:     make([][]planEntry, in.NumUsers),
		revenue:     revenue,
		plannedFrom: from,
		installedAt: time.Now(),
	}
	zs := s.Triples() // a fresh copy, free to reorder
	for lo := 0; lo < len(zs); {
		u := zs[lo].U
		hi := lo + 1
		for hi < len(zs) && zs[hi].U == u {
			hi++
		}
		run := zs[lo:hi]
		lo = hi
		if int(u) < 0 || int(u) >= in.NumUsers {
			continue
		}
		slices.SortFunc(run, byTime)
		ids := in.UserCandIDsByTime(u)
		es := make([]planEntry, len(run))
		j := 0
		for k, z := range run {
			for j < len(ids) && byTime(in.CandAt(ids[j]).Triple, z) < 0 {
				j++
			}
			q := 0.0
			if j < len(ids) {
				if c := in.CandAt(ids[j]); c.Triple == z {
					q = c.Q
				}
			}
			es[k] = planEntry{
				t:     z.T,
				item:  z.I,
				class: in.Class(z.I),
				beta:  in.Beta(z.I),
				q:     q,
				price: in.Price(z.I, z.T),
			}
		}
		p.perUser[u] = es
	}
	return p
}

// byTime orders one user's triples by (time, item).
func byTime(a, b model.Triple) int {
	if c := cmp.Compare(a.T, b.T); c != 0 {
		return c
	}
	return cmp.Compare(a.I, b.I)
}

// entriesAt returns the planned entries for (u, t): a sub-slice of the
// immutable per-user index, found by binary search on t.
func (p *plan) entriesAt(u model.UserID, t model.TimeStep) []planEntry {
	if int(u) < 0 || int(u) >= len(p.perUser) {
		return nil
	}
	es := p.perUser[u]
	lo := sort.Search(len(es), func(i int) bool { return es[i].t >= t })
	hi := lo
	for hi < len(es) && es[hi].t == t {
		hi++
	}
	return es[lo:hi]
}
