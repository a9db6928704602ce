package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/solver"
)

// Every input the program receives is made here from the seed: the
// instance, the boot plan the event streams draw from, and the streams
// themselves. Nothing below reads a clock or the program's state.

// buildInstance generates the paper's synthetic scalability instance
// (T=5, K=3, capacities ≈ 0.22·users) for the given user count.
func buildInstance(seed uint64, users int) (*model.Instance, error) {
	ds, err := dataset.Build("synthetic", dataset.Config{Seed: seed, Users: users})
	if err != nil {
		return nil, fmt.Errorf("build instance: %w", err)
	}
	return ds.Instance, nil
}

// bootPlan solves in with the default algorithm, as a fresh engine does
// at boot; the streams draw exposures and adoptions from its triples.
func bootPlan(in *model.Instance) (*model.Strategy, error) {
	res, err := solver.Solve(context.Background(), in, solver.Options{})
	if err != nil {
		return nil, fmt.Errorf("boot plan: %w", err)
	}
	return res.Strategy, nil
}

// triplesByStep splits plan triples by time step (index 1..T), each list
// shuffled by rng.
func triplesByStep(in *model.Instance, plan *model.Strategy, rng *rand.Rand) [][]model.Triple {
	by := make([][]model.Triple, in.T+1)
	for _, z := range plan.Triples() {
		by[z.T] = append(by[z.T], z)
	}
	for _, zs := range by {
		rng.Shuffle(len(zs), func(a, b int) { zs[a], zs[b] = zs[b], zs[a] })
	}
	return by
}

// drawEvent turns the next triple of zs into an event that adopts with
// probability q·scale (q the triple's primitive adoption probability).
func drawEvent(in *model.Instance, zs []model.Triple, next *int, rng *rand.Rand, scale float64) serve.Event {
	z := zs[*next%len(zs)]
	*next++
	q := in.Q(z.U, z.I, z.T)
	return serve.Event{User: z.U, Item: z.I, T: z.T, Adopted: rng.Float64() < q*scale}
}

func randomUsers(rng *rand.Rand, n, users int) []model.UserID {
	out := make([]model.UserID, n)
	for i := range out {
		out[i] = model.UserID(rng.IntN(users))
	}
	return out
}

// Stream seeds: one independent PCG stream per input, so changing one
// stream's shape never shifts another's draws.
const (
	streamPlanOrder = iota + 1
	streamReads
	streamFeeds
	streamIngest
)

func newRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9E3779B97F4A7C15^stream))
}

// batchSize is the user count of every batch recommend.
const batchSize = 64

// readOp is one serve-read lookup: a single Recommend when batch is nil,
// else a RecommendBatch over batch. All lookups are at step 1.
type readOp struct {
	due   time.Duration
	user  model.UserID
	batch []model.UserID
}

// feedOp is one serve-read mutation: a Feed of ev, or a Flush barrier.
type feedOp struct {
	due     time.Duration
	barrier bool
	ev      serve.Event
}

// readShape fixes the serve-read load. Feedback arrives in cycles of
// BarrierEvery: Feed calls at FeedHz for the first FeedFor of the cycle,
// then a Flush barrier, whose replan runs while the feeder is idle.
type readShape struct {
	Users        int
	Seconds      float64
	RecommendHz  float64 // single-user Recommend rate
	BatchHz      float64 // 64-user RecommendBatch rate
	FeedHz       float64 // Feed rate while feeding
	FeedFor      time.Duration
	AdoptScale   float64 // adoption coin is q·AdoptScale
	BarrierEvery time.Duration
}

// readInputs are the generated serve-read streams.
type readInputs struct {
	reads []readOp
	feeds []feedOp
}

// genRead builds serve-read's two streams: fixed-rate single and batch
// lookups of random users, and feedback cycles of boot-plan events at
// step 1 followed by a barrier.
func genRead(in *model.Instance, plan *model.Strategy, seed uint64, sh readShape) readInputs {
	span := time.Duration(sh.Seconds * float64(time.Second))
	var out readInputs
	rr := newRNG(seed, streamReads)
	recEvery := time.Duration(float64(time.Second) / sh.RecommendHz)
	batchEvery := time.Duration(float64(time.Second) / sh.BatchHz)
	// Merge the two fixed-rate lookup series by due time; batches sit
	// half a recommend interval off the single lookups.
	nextRec, nextBatch := time.Duration(0), recEvery/2
	for nextRec < span || nextBatch < span {
		if nextRec <= nextBatch {
			out.reads = append(out.reads, readOp{due: nextRec, user: model.UserID(rr.IntN(sh.Users))})
			nextRec += recEvery
			continue
		}
		out.reads = append(out.reads, readOp{due: nextBatch, batch: randomUsers(rr, batchSize, sh.Users)})
		nextBatch += batchEvery
	}

	fr := newRNG(seed, streamFeeds)
	zs := triplesByStep(in, plan, newRNG(seed, streamPlanOrder))[1]
	feedEvery := time.Duration(float64(time.Second) / sh.FeedHz)
	next := 0
	for cycle := time.Duration(0); cycle+sh.FeedFor < span; cycle += sh.BarrierEvery {
		for due := cycle; due < cycle+sh.FeedFor; due += feedEvery {
			out.feeds = append(out.feeds, feedOp{due: due, ev: drawEvent(in, zs, &next, fr, sh.AdoptScale)})
		}
		out.feeds = append(out.feeds, feedOp{due: cycle + sh.FeedFor, barrier: true})
	}
	return out
}

// opKind is the kind of one load operation. Over HTTP on the ingest
// workloads, in process on serve-read.
type opKind uint8

const (
	opAdopt     opKind = iota // feedback event: POST /v1/adopt, or Feed
	opRecommend               // single-user recommend
	opBatch                   // 64-user batch recommend
	opAdvance                 // POST /v1/advance
	opStock                   // SetStock shock (in process)
	opPrice                   // ScalePrice shock (in process)
	opFlush                   // barrier (in process)
	numOpKinds
)

var opNames = [numOpKinds]string{"adopt", "recommend", "batch", "advance", "set_stock", "scale_price", "flush"}

// ingestOp is one operation of the ingest stream. HTTP operations carry
// their request target and body pre-encoded.
type ingestOp struct {
	due    time.Duration
	kind   opKind
	target string // request path and query
	body   []byte
	ev     serve.Event    // opAdopt
	item   model.ItemID   // shocks
	stock  int            // opStock
	from   model.TimeStep // opPrice; opAdvance target
	factor float64        // opPrice
}

// ingestShape fixes the ingest load. The horizon's T steps split the run
// into equal periods. Each opens with a buying phase (BuyShare of the
// period) in which an /v1/adopt event adopts with probability q,
// followed by a browsing phase of exposures only; a barrier is due
// BarrierShare into each period, inside the buying phase.
type ingestShape struct {
	Users        int
	Seconds      float64
	OpsHz        float64 // stream slots per second
	ReadEvery    int     // every n-th slot is a read, single and batch in turn
	BuyShare     float64
	BarrierShare float64
}

// period is the length of one horizon step of the stream.
func (sh ingestShape) period(T int) time.Duration {
	return time.Duration(sh.Seconds / float64(T) * float64(time.Second))
}

// shockShares are the stream positions (as shares of the slots) of the
// exogenous shocks: a stock override, then a repricing.
var shockShares = []float64{0.3, 0.7}

// genIngest builds the ingest stream: the horizon 1→T is walked in T
// equal parts with an advance at each boundary, every ReadEvery-th slot
// is a read at the current step, shocks sit at shockShares, and
// every other slot is an /v1/adopt of the next boot-plan triple of the
// current step, adopting with probability q in a buying phase.
func genIngest(in *model.Instance, plan *model.Strategy, seed uint64, sh ingestShape) []ingestOp {
	rng := newRNG(seed, streamIngest)
	by := triplesByStep(in, plan, newRNG(seed, streamPlanOrder))
	next := make([]int, in.T+1)
	slots := int(sh.OpsHz * sh.Seconds)
	every := time.Duration(float64(time.Second) / sh.OpsHz)
	period := sh.period(in.T)
	buy := time.Duration(sh.BuyShare * float64(period))
	shocks := make(map[int]int, len(shockShares))
	for k, s := range shockShares {
		shocks[int(s*float64(slots))] = k
	}
	out := make([]ingestOp, 0, slots+in.T+len(shockShares))
	for j := 0; j < slots; j++ {
		due := time.Duration(j) * every
		step := model.TimeStep(1 + j*in.T/slots)
		if step > 1 && j == (int(step)-1)*slots/in.T {
			out = append(out, ingestOp{due: due, kind: opAdvance, from: step, target: "/v1/advance",
				body: mustJSON(map[string]int{"now": int(step)})})
		}
		if k, ok := shocks[j]; ok {
			item := model.ItemID(rng.IntN(in.NumItems()))
			if k%2 == 0 {
				out = append(out, ingestOp{due: due, kind: opStock, item: item,
					stock: rng.IntN(in.Capacity(item)/2 + 1)})
			} else {
				out = append(out, ingestOp{due: due, kind: opPrice, item: item, from: step,
					factor: 0.8 + 0.45*rng.Float64()})
			}
		}
		if j%sh.ReadEvery == sh.ReadEvery-1 {
			if (j/sh.ReadEvery)%2 == 0 {
				out = append(out, ingestOp{due: due, kind: opRecommend,
					target: fmt.Sprintf("/v1/recommend?user=%d&t=%d", rng.IntN(sh.Users), step)})
			} else {
				out = append(out, ingestOp{due: due, kind: opBatch, target: "/v1/recommend/batch",
					body: mustJSON(map[string]any{"users": randomUsers(rng, batchSize, sh.Users), "t": step})})
			}
			continue
		}
		zs := by[step]
		if len(zs) == 0 {
			continue // no planned triple at this step: the slot stays idle
		}
		scale := 1.0
		if due%period >= buy {
			scale = 0
		}
		ev := drawEvent(in, zs, &next[step], rng, scale)
		out = append(out, ingestOp{due: due, kind: opAdopt, ev: ev, target: "/v1/adopt", body: mustJSON(ev)})
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and structs of numbers reach here
	}
	return b
}
