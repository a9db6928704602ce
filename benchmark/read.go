package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/serve"
	"repro/internal/solver"
)

// restarts is how many warm restarts (Snapshot, then Restore) serve-read
// times; the run record reports their median.
const restarts = 3

// runRead runs serve-read: an in-memory engine held at step 1, one
// goroutine sending open-loop Recommend and RecommendBatch calls, the
// other feeding a trickle of events with a Flush barrier at a fixed
// cadence, so a full-horizon replan runs for about half the run.
func runRead(sh readShape, seed uint64, setups int, tr *tracer) (*runResult, error) {
	r := newResult()
	in0, err := buildInstance(seed, sh.Users)
	if err != nil {
		return nil, err
	}
	plan, err := bootPlan(in0)
	if err != nil {
		return nil, err
	}
	inputs := genRead(in0, plan, seed, sh)
	r.record["candidates"] = in0.NumCandidates()
	r.record["boot_triples"] = plan.Len()
	r.record["offered_hz"] = map[string]float64{"recommend": sh.RecommendHz, "batch": sh.BatchHz, "feed": sh.FeedHz,
		"barriers": float64(time.Second) / float64(sh.BarrierEvery)}

	baseHeap := liveHeapMB()
	var e *serve.Engine
	var setupS []float64
	for range setups {
		in := in0.Clone()
		runtime.GC()
		start := time.Now()
		eng, err := serve.NewEngine(in, serve.Config{})
		end := time.Now()
		if err != nil {
			if e != nil {
				e.Close()
			}
			return nil, err
		}
		tr.record("serve.NewEngine", 0, start, end, 0)
		setupS = append(setupS, end.Sub(start).Seconds())
		if e != nil {
			e.Close()
		}
		e = eng
	}
	r.e2e["setup_s"] = median(setupS, "s")
	r.record["setup_s"] = setupS
	runtime.GC()

	var (
		recLat, batchLat []float64
		recDue, batchDue []float64 // timed from the due time, for the record
		ackLat           []float64
		acks             []acked
		flushes          []interval
		feedLag          []float64
		feedRes          = newResult() // feeder-side counts, merged after
		led              = newLedger()
	)
	before := e.Stats()
	rt0 := readRuntime()
	epoch := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Feeds and barriers are two clients sharing this goroutine: a
		// feed does not queue behind a barrier (its delay shows as lag).
		p, pb := &pacer{epoch: epoch}, &pacer{epoch: epoch}
		for _, op := range inputs.feeds {
			if op.barrier {
				sent := pb.wait(op.due)
				e.Flush()
				end := time.Now()
				pb.done(op.due, sent, end)
				feedRes.op(opFlush, nil)
				flushes = append(flushes, interval{sent, end})
				id := tr.record("serve.Engine.Flush", 0, sent, end, 0)
				if tr != nil {
					shadow(tr, id, e, func() *model.Instance { return in0 })
				}
				continue
			}
			sent := p.wait(op.due)
			err := e.Feed(op.ev)
			end := time.Now()
			ackLat = append(ackLat, p.done(op.due, sent, end))
			tr.record("serve.Engine.Feed", 0, sent, end, 0)
			feedRes.op(opAdopt, err)
			if err == nil {
				led.accept(in0, op.ev)
				if op.ev.Adopted {
					acks = append(acks, acked{epoch.Add(op.due), end})
				}
			}
		}
		feedLag = append(p.lagUS, pb.lagUS...)
	}()
	p := &pacer{epoch: epoch}
	for _, op := range inputs.reads {
		sent := p.wait(op.due)
		due := epoch.Add(op.due)
		if op.batch == nil {
			_, err := e.Recommend(op.user, 1)
			end := time.Now()
			r.op(opRecommend, err)
			recLat = append(recLat, p.done(op.due, sent, end))
			recDue = append(recDue, usSince(due, end))
			tr.record("serve.Engine.Recommend", 0, sent, end, 0)
			continue
		}
		_, err := e.RecommendBatch(op.batch, 1)
		end := time.Now()
		r.op(opBatch, err)
		batchLat = append(batchLat, p.done(op.due, sent, end))
		batchDue = append(batchDue, usSince(due, end))
		tr.record("serve.Engine.RecommendBatch", 0, sent, end, int64(len(op.batch)))
	}
	wg.Wait()
	measured := time.Since(epoch)
	rt1 := readRuntime()
	after := e.Stats()
	for k := range r.attempted {
		r.attempted[k] += feedRes.attempted[k]
		r.failed[k] += feedRes.failed[k]
	}
	r.lagUS = append(p.lagUS, feedLag...)
	r.primary = append([]float64(nil), recLat...)

	barriers := len(flushes)
	replans := after.Replans - before.Replans
	if replans == 0 {
		r.fail("serve-read finished no replan during measurement (%d barriers)", barriers)
	}
	r.record["measured_s"] = measured.Seconds()
	r.record["barriers"] = barriers
	r.record["replans"] = replans

	// Final barrier: an equal-time advance forces a replan over every
	// event fed, so the final plan is a function of the seed alone.
	start := time.Now()
	if err := e.SetNow(1); err != nil {
		r.fail("final advance: %v", err)
	}
	e.Flush()
	flushes = append(flushes, interval{start, time.Now()})
	checkServed(r, e, led, seed)
	checkFromScratch(r, e, led)
	r.revenue = e.Stats().PlanRevenue
	r.plan = e.Strategy().Triples()
	var snap bytes.Buffer
	err = e.Snapshot(&snap)
	e.Close()
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	warmRestarts(r, tr, snap.Bytes(), baseHeap)

	r.e2eQuantile("recommend_p50_us", recLat, 0.5, "us")
	r.e2eQuantile("batch_p50_us", batchLat, 0.5, "us")
	r.e2eQuantile("adopt_ack_p50_us", ackLat, 0.5, "us")
	r.e2eQuantile("adopt_visible_p50_ms", visibility(r, acks, flushes), 0.5, "ms")
	r.shape("recommend_from_due_us", recDue)
	r.shape("batch_from_due_us", batchDue)

	if tr != nil {
		r.layerQuantile("serve.recommend_call_p50_ns", tr.durations("serve.Engine.Recommend", time.Nanosecond), 0.5, "ns")
		r.layerQuantile("serve.recommend_call_p99_ns", tr.durations("serve.Engine.Recommend", time.Nanosecond), 0.99, "ns")
		r.layerQuantile("serve.batch_call_p50_us", tr.durations("serve.Engine.RecommendBatch", time.Microsecond), 0.5, "us")
		r.layerQuantile("serve.flush_p50_ms", tr.durations("serve.Engine.Flush", time.Millisecond), 0.5, "ms")
		r.layerQuantile("serve.flush_p99_ms", tr.durations("serve.Engine.Flush", time.Millisecond), 0.99, "ms")
		r.layer["serve.replans"] = count(float64(replans), "count", barriers)
		r.layer["serve.replans_per_barrier"] = ratio(float64(replans), float64(barriers), "count", barriers)
		shadowMetrics(r, tr)
		goMetrics(rt0, rt1, r.layer)
	}
	return r, nil
}

// warmRestarts times the in-memory engine's recovery path: the snapshot
// taken after the final barrier is restored several times, and each
// restored engine must serve the final plan. It records the restore
// times and heap_live_mb (with the last restored engine alive).
func warmRestarts(r *runResult, tr *tracer, snap []byte, baseHeap float64) {
	var times []float64
	for i := range restarts {
		runtime.GC()
		start := time.Now()
		re, err := serve.Restore(bytes.NewReader(snap), serve.Config{})
		end := time.Now()
		if err != nil {
			r.fail("restore: %v", err)
			break
		}
		tr.record("serve.Restore", 0, start, end, 0)
		times = append(times, end.Sub(start).Seconds())
		if !slices.Equal(re.Strategy().Triples(), r.plan) || !sameBits(re.Stats().PlanRevenue, r.revenue) {
			r.fail("restored plan (%d triples) differs from the snapshotted plan (%d triples)", re.Strategy().Len(), len(r.plan))
		}
		if i == restarts-1 {
			r.e2e["heap_live_mb"] = heapHeld(baseHeap)
		}
		re.Close()
	}
	r.record["recovery_s"] = median(times, "s")
	r.record["recovery_runs_s"] = times
}

// acked is one adoption: when it was due and when the program
// acknowledged it.
type acked struct{ due, ack time.Time }

// interval is one barrier's wall-clock span.
type interval struct{ start, end time.Time }

// visibility returns, for each adoption, the time in ms from its due
// time to the return of the first barrier that began after it was
// acknowledged. flushes must be in start order.
func visibility(r *runResult, acks []acked, flushes []interval) []float64 {
	out := make([]float64, 0, len(acks))
	for _, a := range acks {
		i := sort.Search(len(flushes), func(i int) bool { return flushes[i].start.After(a.ack) })
		if i == len(flushes) {
			r.fail("an adoption acknowledged at %v has no later barrier", a.ack)
			break
		}
		out = append(out, float64(flushes[i].end.Sub(a.due))/float64(time.Millisecond))
	}
	return out
}

// shadow is the extra work a traced run does after a barrier: export the
// engine's feedback, build the residual problem from it and solve it from
// scratch, timing each call. Its spans are children of the barrier span.
// inst returns the instance to build the residual from; it must not be
// mutated concurrently.
func shadow(tr *tracer, parent int64, e *serve.Engine, inst func() *model.Instance) {
	start := time.Now()
	fb, err := e.Feedback()
	end := time.Now()
	tr.record("serve.Engine.Feedback", parent, start, end, 0)
	if err != nil {
		return
	}
	in := inst()
	start = time.Now()
	residual := planner.Residual(in, fb)
	end = time.Now()
	tr.record("planner.Residual", parent, start, end, int64(residual.NumCandidates()))
	start = time.Now()
	res, err := solver.Solve(context.Background(), residual, solver.Options{})
	end = time.Now()
	if err != nil {
		return
	}
	tr.recordAux("solver.Solve", parent, start, end, int64(res.Selections), int64(res.Recomputations))
}

// shadowMetrics turns the shadow spans into the planner and solver
// per-layer metrics.
func shadowMetrics(r *runResult, tr *tracer) {
	r.layerQuantile("planner.feedback_p50_ms", tr.durations("serve.Engine.Feedback", time.Millisecond), 0.5, "ms")
	r.layerQuantile("planner.residual_p50_ms", tr.durations("planner.Residual", time.Millisecond), 0.5, "ms")
	cands, _ := tr.counts("planner.Residual")
	r.layerQuantile("planner.residual_cands_p50", cands, 0.5, "count")
	r.layerQuantile("solver.solve_p50_ms", tr.durations("solver.Solve", time.Millisecond), 0.5, "ms")
	sel, rec := tr.counts("solver.Solve")
	var sumSel, sumRec float64
	for i := range sel {
		sumSel += sel[i]
		sumRec += rec[i]
	}
	r.layerQuantile("solver.selections_p50", sel, 0.5, "count")
	r.layerQuantile("solver.recomputations_p50", rec, 0.5, "count")
	r.layer["solver.useful_frac"] = ratio(sumSel, sumRec, "frac", len(sel))
}
