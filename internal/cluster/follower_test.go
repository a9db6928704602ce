package cluster

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/serve"
)

// mutator is the write surface shared by a cluster and a single engine.
type mutator interface {
	Feed(serve.Event) error
	SetNow(model.TimeStep) error
	SetStock(model.ItemID, int) error
	ScalePrice(model.ItemID, model.TimeStep, float64) error
}

// TestShardsAreFollowers pins the follower contract: across boot,
// adoptions, SetNow, SetStock, ScalePrice, and a shard's kill and
// recovery, no shard engine ever replans, every shard serves exactly
// its slice of the coordinator's plan, and the cluster's plan and
// revenue stay bit-identical to a single engine fed the same script.
func TestShardsAreFollowers(t *testing.T) {
	const shards = 3
	in := testInstance(t, 30, 29)
	cl, err := Open(in.Clone(), Config{Shards: shards, ReplanEvery: 1 << 30,
		Durability: &serve.Durability{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ref, err := serve.NewEngine(in.Clone(), serve.Config{ReplanEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	check := func(step string) {
		t.Helper()
		if !reflect.DeepEqual(cl.Strategy().Triples(), ref.Strategy().Triples()) {
			t.Fatalf("%s: cluster plan differs from the single engine's", step)
		}
		if got, want := cl.Stats().PlanRevenue, ref.Stats().PlanRevenue; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: cluster plan revenue %.17g, single engine %.17g", step, got, want)
		}
		want := make([]*model.Strategy, shards)
		for k := range want {
			want[k] = model.NewStrategy()
		}
		for _, z := range cl.Strategy().Triples() {
			want[shardOf(z.U, shards)].Add(model.Triple{U: localID(z.U, shards), I: z.I, T: z.T})
		}
		cl.engMu.RLock()
		defer cl.engMu.RUnlock()
		for k, e := range cl.engines {
			if n := e.Stats().Replans; n != 0 {
				t.Errorf("%s: shard %d ran %d replans", step, k, n)
			}
			if !reflect.DeepEqual(e.Strategy().Triples(), want[k].Triples()) {
				t.Errorf("%s: shard %d serves a plan other than its slice", step, k)
			}
		}
	}
	both := func(step string, op func(s mutator) error) {
		t.Helper()
		if err := op(cl); err != nil {
			t.Fatalf("%s: cluster: %v", step, err)
		}
		if err := op(ref); err != nil {
			t.Fatalf("%s: engine: %v", step, err)
		}
		cl.Flush()
		ref.Flush()
		check(step)
	}

	check("boot")
	evs := firstCandidates(t, in, 12)
	both("adoptions", func(s mutator) error {
		for _, ev := range evs[:6] {
			if err := s.Feed(ev); err != nil {
				return err
			}
		}
		return nil
	})
	both("SetNow", func(s mutator) error { return s.SetNow(2) })
	both("SetStock", func(s mutator) error { return s.SetStock(evs[0].Item, 1) })
	both("ScalePrice", func(s mutator) error { return s.ScalePrice(evs[1].Item, 2, 1.5) })

	if err := cl.KillShard(1); err != nil {
		t.Fatal(err)
	}
	if err := cl.RecoverShard(1); err != nil {
		t.Fatal(err)
	}
	check("RecoverShard")
	both("post-recovery adoptions", func(s mutator) error {
		for _, ev := range evs[6:] {
			ev.T = 2
			if err := s.Feed(ev); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestClusterFlushLiveUnderSteadyAdoptions is the cluster twin of
// serve's Flush liveness test: a barrier must complete while another
// goroutine keeps feeding fresh adoptions, waiting on nothing fed
// after it started.
func TestClusterFlushLiveUnderSteadyAdoptions(t *testing.T) {
	in := testInstance(t, 6000, 31)
	cl, err := New(in, Config{Shards: 2, ReplanEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Feed an adoption about every half millisecond, cycling through the
	// users so each shard sees a steady stream, most of them fresh
	// (user, class) pairs that count toward a replan. The supply outlasts
	// the bound below.
	quit, running := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	var underway sync.Once
	go func() {
		defer wg.Done()
		defer underway.Do(func() { close(running) }) // even on an early error
		for n := 0; n < in.NumUsers*in.NumItems(); n++ {
			select {
			case <-quit:
				return
			case <-time.After(500 * time.Microsecond):
			}
			ev := serve.Event{User: model.UserID(n % in.NumUsers), Item: model.ItemID(n / in.NumUsers), T: 1, Adopted: true}
			if err := cl.Feed(ev); err != nil {
				t.Error(err)
				return
			}
			if n == 16 {
				underway.Do(func() { close(running) })
			}
		}
	}()
	<-running
	start := time.Now()
	done := make(chan struct{})
	go func() {
		cl.Flush()
		close(done)
	}()
	const bound = 5 * time.Second
	select {
	case <-done:
		t.Logf("Flush returned after %v under a steady adoption stream", time.Since(start))
	case <-time.After(bound):
		t.Errorf("Flush still blocked after %v under a steady adoption stream", bound)
	}
	close(quit)
	wg.Wait()
	<-done
}
