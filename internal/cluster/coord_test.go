package cluster

import (
	"context"
	"testing"

	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/solver"
)

// hostileInstance has one item with capacity 1 and many users wanting
// it — an algorithm that recommends it to everyone violates the
// distinct-user quota by construction.
func hostileInstance() *model.Instance {
	in := model.NewInstance(4, 1, 2, 1)
	in.SetItem(0, 0, 0.5, 1)
	for t := 1; t <= 2; t++ {
		in.SetPrice(0, model.TimeStep(t), 10)
	}
	for u := 0; u < 4; u++ {
		in.AddCandidate(model.UserID(u), 0, 1, 0.5)
		in.AddCandidate(model.UserID(u), 0, 2, 0.5)
	}
	in.FinishCandidates()
	return in
}

// greedyAll is a registered algorithm that plans every candidate —
// wildly over quota.
const greedyAll = "test-greedy-all"

func init() {
	solver.Register(solver.Func(greedyAll, func(_ context.Context, in *model.Instance, _ solver.Options) (solver.Result, error) {
		s := model.NewStrategy()
		for u := 0; u < in.NumUsers; u++ {
			for _, c := range in.UserCandidates(model.UserID(u)) {
				s.Add(c.Triple)
			}
		}
		return solver.Result{Strategy: s}, nil
	}))
}

// TestQuotaDenialsTrimHostilePlanner verifies the coordinator's last
// line of defense: a registered algorithm that ignores the
// distinct-user quota gets its plan deterministically trimmed to
// validity, and the denials are counted.
func TestQuotaDenialsTrimHostilePlanner(t *testing.T) {
	in := hostileInstance()
	cl, err := New(in, Config{Shards: 2, Algorithm: greedyAll})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Force a coordinated replan so admitQuota sees greedyAll's output.
	if err := cl.Feed(serve.Event{User: 0, Item: 0, T: 1, Adopted: true}); err != nil {
		t.Fatal(err)
	}
	cl.Flush()

	s := cl.Strategy()
	if err := cl.Instance().CheckValid(s); err != nil {
		t.Fatalf("installed plan violates constraints: %v", err)
	}
	if got := cl.CoordinatorStats().QuotaDenials; got == 0 {
		t.Error("hostile planner produced no quota denials")
	}
	// Capacity 1 and one adopted user: at most one distinct user may be
	// planned for item 0, at one step each (K=1).
	users := make(map[model.UserID]bool)
	for _, z := range s.Triples() {
		users[z.U] = true
	}
	if len(users) > 1 {
		t.Errorf("trimmed plan still shows item 0 to %d distinct users (capacity 1)", len(users))
	}
}

// TestAdmitQuotaFastPath pins the byte-identity property: a valid
// strategy passes through admitQuota unchanged (same pointer, no
// copy), so registered solvers never see their output rewritten.
func TestAdmitQuotaFastPath(t *testing.T) {
	in := hostileInstance()
	s := model.NewStrategy()
	s.Add(model.Triple{U: 0, I: 0, T: 1})
	out, denied := admitQuota(in, s)
	if out != s {
		t.Error("valid strategy was copied")
	}
	if denied != 0 {
		t.Errorf("valid strategy reported %d denials", denied)
	}
}

// TestReconcileAlgebra pins the clipped-drawdown identity the
// reservation protocol rests on: shards drawing their optimistic views
// down concurrently reconcile to exactly the remainder a sequential
// application of the same adoptions reaches, including oversubscribed
// rounds that clip at zero.
func TestReconcileAlgebra(t *testing.T) {
	in := hostileInstance() // item 0, capacity 1
	cl, err := New(in, Config{Shards: 2, Algorithm: greedyAll})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Both shards adopt item 0 in the same barrier window — combined
	// drawdown 2 against remaining stock 1.
	for u := 0; u < 2; u++ {
		if err := cl.Feed(serve.Event{User: model.UserID(u), Item: 0, T: 1, Adopted: true}); err != nil {
			t.Fatal(err)
		}
	}
	cl.Flush()
	n, err := cl.Stock(0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("oversubscribed stock reconciled to %d, want 0", n)
	}
	st := cl.CoordinatorStats()
	if st.StockRemaining != 0 {
		t.Errorf("stock_remaining gauge %d, want 0", st.StockRemaining)
	}
	if st.OutstandingReservations != 0 {
		t.Errorf("outstanding reservations %d after barrier, want 0", st.OutstandingReservations)
	}
	if st.ReconcileRounds == 0 {
		t.Error("no reconcile rounds recorded")
	}
}
