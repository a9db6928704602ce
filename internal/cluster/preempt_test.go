package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/solver"
)

// blockFirst is a registered algorithm that runs G-Greedy, except that
// the first solve of a test's gate handed a cancellable context (only a
// background barrier's is: boot and explicit barriers solve under
// context.Background) blocks until that context is canceled. A gate is
// selected by Options.Seed, so tests under -count=N never share one.
const blockFirst = "test-block-first-background"

// preemptGates maps Options.Seed to the gate of the test using it.
var (
	preemptGates sync.Map
	gateSeeds    atomic.Uint64
)

// preemptGate records what the blocking algorithm saw for one test.
type preemptGate struct {
	seed    uint64
	armed   atomic.Bool
	blocked chan struct{} // closed when the first background solve blocks
	// canceled counts solves that returned a context error;
	// explicitFailed counts solves under a non-cancellable context (boot
	// and explicit barriers) that returned any error.
	canceled       atomic.Int64
	explicitFailed atomic.Int64
}

func init() {
	gg, err := solver.Lookup(solver.NameGGreedy)
	if err != nil {
		panic(err)
	}
	solver.Register(solver.Func(blockFirst, func(ctx context.Context, in *model.Instance, o solver.Options) (solver.Result, error) {
		v, ok := preemptGates.Load(o.Seed)
		if !ok {
			return gg.Solve(ctx, in, o)
		}
		g := v.(*preemptGate)
		var res solver.Result
		var err error
		if ctx.Done() != nil && g.armed.CompareAndSwap(true, false) {
			close(g.blocked)
			<-ctx.Done()
			err = ctx.Err()
		} else {
			res, err = gg.Solve(ctx, in, o)
		}
		switch {
		case ctx.Done() == nil && err != nil:
			g.explicitFailed.Add(1)
		case errors.Is(err, context.Canceled):
			g.canceled.Add(1)
		}
		return res, err
	}))
}

// newGate arms a fresh gate for one test and returns the cluster
// config that routes its solves through it.
func newGate(t *testing.T) (*preemptGate, Config) {
	g := &preemptGate{seed: gateSeeds.Add(1), blocked: make(chan struct{})}
	g.armed.Store(true)
	preemptGates.Store(g.seed, g)
	t.Cleanup(func() { preemptGates.Delete(g.seed) })
	return g, Config{Shards: 2, ReplanEvery: 4, Algorithm: blockFirst, Solver: solver.Options{Seed: g.seed}}
}

// awaitBlocked waits until the gate's background solve is stuck.
func awaitBlocked(t *testing.T, g *preemptGate) {
	t.Helper()
	select {
	case <-g.blocked:
	case <-time.After(10 * time.Second):
		t.Fatal("no background barrier reached its solve")
	}
}

// within runs fn and reports an error if it has not returned in time:
// an explicit barrier queued behind a stuck background barrier would
// otherwise wait forever.
func within(what string, fn func() error) error {
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		return nil
	case <-time.After(10 * time.Second):
		return fmt.Errorf("%s still blocked behind a background barrier after 10s", what)
	}
}

// flush adapts Flush to within.
func flush(cl *Cluster) func() error { return func() error { cl.Flush(); return nil } }

// assertMatchesSingleEngine replays evs into a single engine, ends both
// on the same clock and compares the installed plans and the bits of
// their revenue.
func assertMatchesSingleEngine(t *testing.T, in *model.Instance, cl *Cluster, evs []serve.Event, now model.TimeStep) {
	t.Helper()
	e, err := serve.NewEngine(in.Clone(), serve.Config{ReplanEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, ev := range evs {
		if err := e.Feed(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.SetNow(now); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	if got, want := cl.Strategy().Triples(), e.Strategy().Triples(); !reflect.DeepEqual(got, want) {
		t.Errorf("cluster plan (%d triples) differs from the single engine's (%d)", len(got), len(want))
	}
	got, want := cl.Stats().PlanRevenue, e.Stats().PlanRevenue
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("cluster PlanRevenue %v, single engine %v", got, want)
	}
}

// preemptedBarriers counts published barrier spans marked preempted.
func preemptedBarriers(cl *Cluster) int {
	n := 0
	for _, s := range cl.Tracer().Traces() {
		if s.Name == "barrier" && s.Attrs["preempted"] == int64(1) {
			n++
		}
	}
	return n
}

// checkPreemptedOnce asserts exactly one background barrier was
// preempted, and that it is counted, traced and charged to nobody else.
func checkPreemptedOnce(t *testing.T, cl *Cluster, g *preemptGate, replans int64) {
	t.Helper()
	if got := cl.co.preempted.Value(); got != 1 {
		t.Errorf("revmaxd_cluster_barriers_preempted_total = %d, want 1", got)
	}
	if got := preemptedBarriers(cl); got != 1 {
		t.Errorf("%d barrier spans carry preempted=1, want 1", got)
	}
	if got := g.canceled.Load(); got != 1 {
		t.Errorf("%d solves returned a context error, want 1", got)
	}
	// Boot plus the explicit barrier: the preempted one installed nothing.
	if got := cl.CoordinatorStats().Replans; got != replans {
		t.Errorf("replans = %d, want %d", got, replans)
	}
}

// TestPreemptByFlush: an explicit Flush cancels a background barrier
// stuck in its solve, then runs the replan itself.
func TestPreemptByFlush(t *testing.T) {
	in := testInstance(t, 24, 41)
	g, cfg := newGate(t)
	cl, err := New(in.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	evs := firstCandidates(t, in, cfg.ReplanEvery)
	for _, ev := range evs {
		if err := cl.Feed(ev); err != nil {
			t.Fatal(err)
		}
	}
	awaitBlocked(t, g)
	if err := within("Flush", flush(cl)); err != nil {
		t.Fatal(err)
	}
	checkPreemptedOnce(t, cl, g, 2)
	if err := cl.SetNow(2); err != nil {
		t.Fatal(err)
	}
	assertMatchesSingleEngine(t, in, cl, evs, 2)
}

// TestPreemptBySetNow: SetNow (the /v1/advance path) preempts the same
// way, and its barrier replans on the advanced clock.
func TestPreemptBySetNow(t *testing.T) {
	in := testInstance(t, 24, 43)
	g, cfg := newGate(t)
	cl, err := New(in.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	evs := firstCandidates(t, in, cfg.ReplanEvery)
	for _, ev := range evs {
		if err := cl.Feed(ev); err != nil {
			t.Fatal(err)
		}
	}
	awaitBlocked(t, g)
	if err := within("SetNow", func() error { return cl.SetNow(2) }); err != nil {
		t.Fatal(err)
	}
	checkPreemptedOnce(t, cl, g, 2)
	assertMatchesSingleEngine(t, in, cl, evs, 2)
}

// TestPreemptExplicitBarriersUnderSteadyAdoptions runs Flush and SetNow
// concurrently while adoptions keep scheduling background barriers.
// Every explicit call completes, no explicit solve fails, every canceled
// solve belongs to a background barrier counted as preempted, and the
// final plan is the single engine's.
func TestPreemptExplicitBarriersUnderSteadyAdoptions(t *testing.T) {
	in := testInstance(t, 400, 47)
	g, cfg := newGate(t)
	cl, err := New(in.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	evs := firstCandidates(t, in, 240)

	fed := make(chan struct{})
	defer func() { <-fed }() // the feeder reports through t: let it finish first
	go func() {
		defer close(fed)
		for _, ev := range evs {
			if err := cl.Feed(ev); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	awaitBlocked(t, g)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if err := within("Flush", flush(cl)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for now := model.TimeStep(2); now <= 3; now++ {
			if err := within("SetNow", func() error { return cl.SetNow(now) }); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-fed
	if err := cl.SetNow(4); err != nil {
		t.Fatal(err)
	}

	if got := g.explicitFailed.Load(); got != 0 {
		t.Errorf("%d explicit or boot solves failed; explicit barriers must never be preempted", got)
	}
	// A barrier canceled before its solve starts is preempted without
	// the algorithm running, so preemptions can outnumber canceled solves.
	if got, canceled := cl.co.preempted.Value(), g.canceled.Load(); canceled < 1 || got < canceled {
		t.Errorf("preempted barriers = %d, canceled solves = %d; want 1 ≤ canceled ≤ preempted", got, canceled)
	}
	assertMatchesSingleEngine(t, in, cl, evs, 4)
}
