package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"time"
)

// pacer runs one load goroutine's open-loop schedule. It waits until
// each operation is due and records how late the goroutine actually sent
// it (its lag: waiting for a CPU, mostly). Latency is computed
// for a punctual client: an operation starts at its due time, or when
// the previous operation would have returned if that is later, and takes
// the time it was in flight. Queueing behind a slow operation therefore
// counts as latency, while the generator's own lag does not; the lag is
// reported on its own.
type pacer struct {
	epoch time.Time
	lagUS []float64
	// prevEnd is when the previous operation would have returned had
	// every operation been sent on time (offset from epoch).
	prevEnd time.Duration
	ready   time.Time // when the previous operation returned
}

// wait blocks until op's due time and returns when the op was sent. It
// sleeps through long waits but yields in a loop for the last
// millisecond or two, since a Go timer can fire a millisecond late.
func (p *pacer) wait(due time.Duration) time.Time {
	from := p.epoch.Add(due)
	for {
		d := time.Until(from)
		if d <= 0 {
			break
		}
		if d > 2*time.Millisecond {
			time.Sleep(d - 1500*time.Microsecond)
			continue
		}
		runtime.Gosched()
	}
	sent := time.Now()
	if p.ready.After(from) {
		from = p.ready
	}
	p.lagUS = append(p.lagUS, float64(sent.Sub(from))/float64(time.Microsecond))
	return sent
}

// done records that the op due at due, sent at sent, returned at end,
// and returns its latency in microseconds.
func (p *pacer) done(due time.Duration, sent, end time.Time) float64 {
	p.ready = end
	start := max(due, p.prevEnd)
	flight := end.Sub(sent)
	p.prevEnd = start + flight
	return float64(start-due+flight) / float64(time.Microsecond)
}

// rtSample is a reading of the Go runtime counters the per-layer "go"
// metrics are deltas of.
type rtSample struct {
	gcCycles uint64
	gcCPU    float64
	allCPU   float64
	allocs   uint64
	pauses   *metrics.Float64Histogram
}

func readRuntime() rtSample {
	ss := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(ss)
	return rtSample{
		gcCycles: ss[0].Value.Uint64(),
		gcCPU:    ss[1].Value.Float64(),
		allCPU:   ss[2].Value.Float64(),
		allocs:   ss[3].Value.Uint64(),
		pauses:   ss[4].Value.Float64Histogram(),
	}
}

// goMetrics reports the runtime's work between two readings.
func goMetrics(a, b rtSample, out map[string]Metric) {
	cycles := b.gcCycles - a.gcCycles
	out["go.gc_cycles"] = count(float64(cycles), "count", 1)
	out["go.gc_cpu_frac"] = ratio(b.gcCPU-a.gcCPU, b.allCPU-a.allCPU, "frac", int(cycles))
	out["go.alloc_mb"] = count(float64(b.allocs-a.allocs)/(1<<20), "MB", 1)
	// GC pauses arrive as a histogram; expand the window's bucket deltas
	// into one sample per pause at the bucket's upper bound (an upper
	// bound on each pause).
	var pauses []float64
	for i, n := range b.pauses.Counts {
		d := n - a.pauses.Counts[i]
		hi := b.pauses.Buckets[i+1]
		if math.IsInf(hi, 1) {
			hi = b.pauses.Buckets[i]
		}
		for ; d > 0; d-- {
			pauses = append(pauses, hi*1e6)
		}
	}
	out["go.gc_pause_p99_us"], _ = quantileMetric(pauses, 0.99, "us")
}

// heapHeld is the live heap above base, taken while a freshly recovered
// engine or cluster holds the final state: the footprint of the serving
// state itself, free of the run's transient and tracing allocations.
func heapHeld(base float64) Metric {
	return Metric{Value: liveHeapMB() - base, Unit: "MB", Samples: 1, Stat: "value"}
}

// liveHeapMB collects garbage and returns the live Go heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
