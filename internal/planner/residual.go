package planner

import (
	"repro/internal/model"
)

// Feedback captures everything a deployment has observed so far, in the
// exact shape a replan needs to condition on: which user bought from
// which class, when each user was exposed to each class, how much stock
// every item has left, and the first time step that still lies in the
// future. The zero value of each field is meaningful: nil maps mean "no
// observations", a nil Stock means "full initial capacity".
//
// Feedback is the seam between this package and online serving layers
// (internal/serve): the Planner accumulates one internally during
// step-wise execution, while a serving engine maintains its own sharded
// copy and hands a merged view to Residual when it replans.
type Feedback struct {
	// AdoptedClass[u][c] marks that user u already purchased from class
	// c; further recommendations in c are pointless (§3.1 competition).
	AdoptedClass map[model.UserID]map[model.ClassID]bool
	// Exposures[u][c] lists realized exposure times of user u to class c,
	// the memory driving saturation (Eq. 1).
	Exposures map[model.UserID]map[model.ClassID][]model.TimeStep
	// Stock[i] is the remaining capacity of item i. nil means untouched
	// initial capacities.
	Stock []int
	// Now is the first unexecuted time step; candidates before it are
	// history and excluded from the residual instance.
	Now model.TimeStep
}

// SaturationMemory returns the saturation memory of Eq. 1 accrued by
// the given exposure times at time t: Σ 1/(t−τ) over exposures τ < t.
// The kernel lives in model (shared with core's incremental sessions);
// this wrapper keeps the planner-facing name stable.
func SaturationMemory(exposures []model.TimeStep, t model.TimeStep) float64 {
	return model.SaturationMemory(exposures, t)
}

// Discount applies the saturation discount β^mem to a primitive
// adoption probability.
func Discount(q, beta, mem float64) float64 {
	return model.Discount(q, beta, mem)
}

// Residual builds the remaining-horizon instance induced by fb on in:
// candidates at t ≥ fb.Now, users who adopted from a class lose that
// class's candidates, depleted items lose all candidates, capacities
// shrink to remaining stock, and primitive probabilities carry the
// saturation memory of realized exposures (folded in so the planning
// model stays Definition-1 consistent for the residual horizon).
//
// The construction is deterministic: users and candidates are visited in
// canonical order, so equal (in, fb) inputs yield equal instances — the
// property serving-layer determinism tests rely on.
func Residual(in *model.Instance, fb Feedback) *model.Instance {
	now := fb.Now
	if now < 1 {
		now = 1
	}
	res := model.NewInstance(in.NumUsers, in.NumItems(), in.T, in.K)
	for i := 0; i < in.NumItems(); i++ {
		id := model.ItemID(i)
		cap := in.Capacity(id)
		if fb.Stock != nil {
			cap = maxInt(fb.Stock[i], 0)
		}
		res.SetItem(id, in.Class(id), in.Beta(id), cap)
		for t := 1; t <= in.T; t++ {
			res.SetPrice(id, model.TimeStep(t), in.Price(id, model.TimeStep(t)))
		}
	}
	for u := 0; u < in.NumUsers; u++ {
		uid := model.UserID(u)
		adopted, exposures := fb.AdoptedClass[uid], fb.Exposures[uid]
		for _, cand := range in.UserCandidates(uid) {
			if cand.T < now {
				continue
			}
			c := in.Class(cand.I)
			if adopted[c] {
				continue
			}
			if fb.Stock != nil && fb.Stock[cand.I] <= 0 {
				continue
			}
			// Fold realized-exposure memory into the primitive q so the
			// residual plan's saturation starts from observed history.
			q := Discount(cand.Q, in.Beta(cand.I), SaturationMemory(exposures[c], cand.T))
			if q > 0 {
				res.AddCandidate(uid, cand.I, cand.T, q)
			}
		}
	}
	res.FinishCandidates()
	return res
}
