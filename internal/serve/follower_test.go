package serve

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/model"
)

// TestFollowerNeverPlans pins the follower contract at the engine
// level: a follower serves exactly what it was installed — across
// adoptions, clock moves, stock and price changes, and a kill -9 with
// WAL recovery — and never replans; Install is refused by an engine
// that plans for itself.
func TestFollowerNeverPlans(t *testing.T) {
	in := testInstance(t, 40, 6, 3, 2, 17)
	dir := t.TempDir()
	cfg := Config{Durability: &Durability{Dir: dir}}
	f, err := OpenFollower(in.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f.Strategy().Len() != 0 {
		t.Fatalf("fresh follower serves %d triples, want an empty plan", f.Strategy().Len())
	}
	leader := newTestEngine(t, in.Clone(), Config{ReplanEvery: 1 << 30})
	want := leader.Strategy().Triples()
	if err := f.Install(context.Background(), leader.Strategy(), 2, 1.5); err != nil {
		t.Fatal(err)
	}
	f.Flush()
	check := func(step string, e *Engine) {
		t.Helper()
		if got := e.Strategy().Triples(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: follower serves %d triples, want the %d installed", step, len(got), len(want))
		}
		if st := e.Stats(); st.Replans != 0 || st.PlanRevenue != 1.5 || st.Now != 2 {
			t.Fatalf("%s: replans %d, revenue %v, now %d; want 0, 1.5, 2", step, st.Replans, st.PlanRevenue, st.Now)
		}
	}
	check("install", f)

	z := want[0]
	for _, err := range []error{
		f.Feed(Event{User: z.U, Item: z.I, T: z.T, Adopted: true}),
		f.SetNow(2),
		f.SetStock(z.I, 0),
		f.ScalePrice(z.I, 2, 2),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	f.Flush()
	check("feedback", f)
	// Recovery serves the snapshotted plan: checkpoint it, then leave a
	// WAL tail that would make a planning engine replan at boot.
	if err := f.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	z = want[len(want)-1]
	if err := f.Feed(Event{User: z.U, Item: z.I, T: z.T, Adopted: true}); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Kill()

	r, err := OpenFollower(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Stats().Adoptions != 2 {
		t.Fatalf("recovered follower holds %d adoptions, want 2", r.Stats().Adoptions)
	}
	check("recovery", r)

	if err := leader.Install(context.Background(), model.NewStrategy(), 1, 0); err == nil {
		t.Fatal("an engine that plans for itself accepted Install")
	}
	r.Close()
	if err := r.Install(context.Background(), model.NewStrategy(), 2, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Install on a closed follower: %v, want ErrClosed", err)
	}
}

// TestGrantStockKeepsRacingDrawdown: a grant moves stock relative to
// the value its caller read, so an adoption applied between that read
// and the grant still counts — and the logged result survives a
// kill -9.
func TestGrantStockKeepsRacingDrawdown(t *testing.T) {
	in := testInstance(t, 40, 6, 3, 2, 19)
	cfg := Config{Durability: &Durability{Dir: t.TempDir()}}
	f, err := OpenFollower(in.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := in.UserCandidates(0)[0]
	read, err := f.Stock(c.I)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Feed(Event{User: 0, Item: c.I, T: c.T, Adopted: true}); err != nil {
		t.Fatal(err)
	}
	if err := f.GrantStock(c.I, read, read+3); err != nil {
		t.Fatal(err)
	}
	f.Flush()
	want := read + 3 - 1
	if got, _ := f.Stock(c.I); got != want {
		t.Fatalf("stock after grant = %d, want %d (grant %d→%d keeps the adoption)", got, want, read, read+3)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Kill()
	r, err := OpenFollower(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, _ := r.Stock(c.I); got != want {
		t.Fatalf("recovered stock = %d, want %d", got, want)
	}
}
