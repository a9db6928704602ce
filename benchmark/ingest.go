package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/store"
)

// target is the durable serving stack an ingest workload drives: a
// single serve.Engine or a cluster.Cluster.
type target interface {
	servedView
	Flush()
	Sync() error
	SetNow(t model.TimeStep) error
	SetStock(i model.ItemID, n int) error
	ScalePrice(i model.ItemID, from model.TimeStep, factor float64) error
	Stats() serve.Stats
	Kill()
	Close()
}

// deployment opens one kind of target and reads the few things that
// differ between the kinds.
type deployment struct {
	name    string // span prefix of the target's methods
	open    func(in *model.Instance, dir string) (target, error)
	handler func(target) http.Handler
	// engineReplans counts replans run by serve.Engine instances: the
	// engine itself, or every shard engine of a cluster.
	engineReplans func(target) int64
}

var singleEngine = deployment{
	name: "serve.Engine",
	open: func(in *model.Instance, dir string) (target, error) {
		e, err := serve.Open(in, serve.Config{Durability: &serve.Durability{Dir: dir}})
		if err != nil {
			return nil, err
		}
		return e, nil
	},
	handler:       func(t target) http.Handler { return serve.Handler(t.(*serve.Engine)) },
	engineReplans: func(t target) int64 { return t.Stats().Replans },
}

// clusterShards is the shard count of cluster-ingest.
const clusterShards = 2

var shardedCluster = deployment{
	name: "cluster.Cluster",
	open: func(in *model.Instance, dir string) (target, error) {
		c, err := cluster.Open(in, cluster.Config{Shards: clusterShards, Durability: &serve.Durability{Dir: dir}})
		if err != nil {
			return nil, err
		}
		return c, nil
	},
	handler: func(t target) http.Handler { return cluster.Handler(t.(*cluster.Cluster)) },
	engineReplans: func(t target) int64 {
		var n int64
		for _, s := range t.(*cluster.Cluster).StatsSamples() {
			n += s.Stats.Replans
		}
		return n
	},
}

// spanHeader carries the client span ID to the server-side span.
const spanHeader = "X-Bench-Span"

// timedHandler wraps h so each ServeHTTP call is recorded as a span
// whose parent is the client span named in spanHeader.
func timedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		tr.record("http.ServeHTTP "+r.URL.Path, parent, start, end, 0)
	})
}

// loopback serves h on 127.0.0.1 until close.
type loopback struct {
	srv  *http.Server
	done chan struct{}
	base string
	hc   *http.Client
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	lb := &loopback{srv: &http.Server{Handler: h}, done: make(chan struct{}), base: "http://" + ln.Addr().String()}
	go func() {
		defer close(lb.done)
		_ = lb.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	// One keep-alive connection carries every request.
	lb.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	return lb, nil
}

func (lb *loopback) close() {
	lb.hc.CloseIdleConnections()
	_ = lb.srv.Close()
	<-lb.done
}

// do sends op's request and drains the response; a status other than
// the one the endpoint answers on success is an error.
func (lb *loopback) do(op ingestOp, spanID int64) error {
	method, want := http.MethodPost, http.StatusOK
	switch op.kind {
	case opRecommend:
		method = http.MethodGet
	case opAdopt:
		want = http.StatusAccepted
	}
	req, err := http.NewRequest(method, lb.base+op.target, bytes.NewReader(op.body))
	if err != nil {
		return err
	}
	if op.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if spanID != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(spanID, 10))
	}
	resp, err := lb.hc.Do(req)
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d", method, op.target, resp.StatusCode)
	}
	return nil
}

// clientSpan names the client side of an HTTP operation.
func clientSpan(op ingestOp) string {
	path, _, _ := strings.Cut(op.target, "?")
	if op.kind == opRecommend {
		return "http.GET " + path
	}
	return "http.POST " + path
}

// runIngest runs serve-ingest or cluster-ingest: a durable target behind
// its HTTP handler on loopback, one goroutine sending the seeded stream
// over one keep-alive connection, the other running Flush barriers on a
// fixed cadence. The run ends with Kill and recovery from the data dir.
// Data directories are made under tmp.
func runIngest(dep deployment, sh ingestShape, seed uint64, setups int, tr *tracer, tmp string) (*runResult, error) {
	r := newResult()
	in0, err := buildInstance(seed, sh.Users)
	if err != nil {
		return nil, err
	}
	plan, err := bootPlan(in0)
	if err != nil {
		return nil, err
	}
	ops := genIngest(in0, plan, seed, sh)
	r.record["candidates"] = in0.NumCandidates()
	r.record["boot_triples"] = plan.Len()
	r.record["offered_hz"] = map[string]float64{"stream_slots": sh.OpsHz, "reads": sh.OpsHz / float64(sh.ReadEvery),
		"barriers": float64(time.Second) / float64(sh.period(in0.T))}

	baseHeap := liveHeapMB()
	var (
		tg  target
		dir string
	)
	var setupS []float64
	for range setups {
		d, err := os.MkdirTemp(tmp, "data-")
		if err != nil {
			return nil, err
		}
		in := in0.Clone()
		runtime.GC()
		start := time.Now()
		t, err := dep.open(in, d)
		end := time.Now()
		if err != nil {
			return nil, fmt.Errorf("open: %w", err)
		}
		tr.record(dep.name+".Open", 0, start, end, 0)
		setupS = append(setupS, end.Sub(start).Seconds())
		if tg != nil {
			tg.Kill()
			os.RemoveAll(dir)
		}
		tg, dir = t, d
	}
	defer func() { os.RemoveAll(dir) }()
	r.e2e["setup_s"] = median(setupS, "s")

	h := dep.handler(tg)
	if tr != nil {
		h = timedHandler(h, tr)
	}
	lb, err := serveLoopback(h)
	if err != nil {
		tg.Kill()
		return nil, err
	}

	// The shadow residual reads a private price table that mirrors the
	// stream's repricings: the engine's own instance is mutated by its
	// feedback loop and may not be read concurrently.
	var shadowMu sync.Mutex
	shadowIn := in0.ClonePrices()
	var step atomic.Int32
	step.Store(1)

	runtime.GC()
	before := tg.Stats()
	engBefore := dep.engineReplans(tg)
	rt0 := readRuntime()
	epoch := time.Now()

	// Barrier goroutine: Flush at a fixed cadence, like revmaxd's
	// -flush-interval ticker (a barrier that overruns its tick starts the
	// next one at once; further missed ticks are dropped).
	var (
		flushes      []interval
		stepBarriers = make([]int, in0.T+1)
		pb           = &pacer{epoch: epoch}
		wg           sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		span := time.Duration(sh.Seconds * float64(time.Second))
		period := sh.period(in0.T)
		for k := 1; ; k++ {
			due := time.Duration(k-1)*period + time.Duration(sh.BarrierShare*float64(period))
			if due >= span {
				break
			}
			if time.Since(epoch) > due+period {
				continue
			}
			sent := pb.wait(due)
			s := step.Load()
			tg.Flush()
			end := time.Now()
			pb.done(due, sent, end)
			flushes = append(flushes, interval{sent, end})
			stepBarriers[s]++
			id := tr.record(dep.name+".Flush", 0, sent, end, 0)
			if tr != nil {
				start := time.Now()
				err := tg.Sync()
				tr.record(dep.name+".Sync", id, start, time.Now(), 0)
				if err != nil {
					continue
				}
				if e, ok := tg.(*serve.Engine); ok {
					shadow(tr, id, e, func() *model.Instance {
						shadowMu.Lock()
						defer shadowMu.Unlock()
						return shadowIn.ClonePrices()
					})
				}
			}
		}
	}()

	var (
		lat              [numOpKinds][]float64
		ackDue, batchDue []float64 // timed from the due time, for the record
		acks             []acked
		led              = newLedger()
	)
	p := &pacer{epoch: epoch}
	for _, op := range ops {
		sent := p.wait(op.due)
		var err error
		switch op.kind {
		case opAdopt, opRecommend, opBatch, opAdvance:
			id := tr.reserve(clientSpan(op))
			err = lb.do(op, id)
			end := time.Now()
			lat[op.kind] = append(lat[op.kind], p.done(op.due, sent, end))
			tr.fill(id, sent, end)
			due := epoch.Add(op.due)
			switch op.kind {
			case opAdopt:
				ackDue = append(ackDue, usSince(due, end))
				if err == nil {
					led.accept(in0, op.ev)
					if op.ev.Adopted {
						acks = append(acks, acked{due, end})
					}
				}
			case opBatch:
				batchDue = append(batchDue, usSince(due, end))
			case opAdvance:
				step.Store(int32(op.from))
			}
		case opStock:
			err = tg.SetStock(op.item, op.stock)
			end := time.Now()
			p.done(op.due, sent, end)
			tr.record(dep.name+".SetStock", 0, sent, end, 0)
		case opPrice:
			err = tg.ScalePrice(op.item, op.from, op.factor)
			end := time.Now()
			p.done(op.due, sent, end)
			tr.record(dep.name+".ScalePrice", 0, sent, end, 0)
			if err == nil && tr != nil {
				shadowMu.Lock()
				for t := op.from; int(t) <= shadowIn.T; t++ {
					shadowIn.SetPrice(op.item, t, shadowIn.Price(op.item, t)*op.factor)
				}
				shadowMu.Unlock()
			}
		}
		r.op(op.kind, err)
	}
	wg.Wait()
	measured := time.Since(epoch)
	rt1 := readRuntime()
	barriers := len(flushes)
	r.attempted[opFlush] += barriers
	mid := tg.Stats()
	engReplans := dep.engineReplans(tg) - engBefore
	r.lagUS = append(p.lagUS, pb.lagUS...)
	r.primary = append([]float64(nil), lat[opAdopt]...)

	// Final barrier: an equal-time advance forces a replan over the whole
	// stream, so the final plan is a function of the seed alone.
	start := time.Now()
	if err := tg.SetNow(model.TimeStep(step.Load())); err != nil {
		r.fail("final advance: %v", err)
	}
	tg.Flush()
	flushes = append(flushes, interval{start, time.Now()})
	lb.close()

	for t := 1; t <= in0.T; t++ {
		if stepBarriers[t] == 0 {
			r.fail("no barrier ran while the clock was at step %d", t)
		}
	}
	visible := visibility(r, acks, flushes)

	checkServed(r, tg, led, seed)
	if e, ok := tg.(*serve.Engine); ok {
		checkFromScratch(r, e, led)
	}
	if err := tg.Sync(); err != nil {
		r.fail("sync before kill: %v", err)
	}
	r.revenue = tg.Stats().PlanRevenue
	r.plan = tg.Strategy().Triples()
	tg.Kill()

	if tr != nil {
		replayCopy(r, tr, dir, tmp)
	}
	var recoverS []float64
	for i := range recoveries {
		runtime.GC()
		start := time.Now()
		rec, err := dep.open(nil, dir)
		end := time.Now()
		if err != nil {
			r.fail("recovery: %v", err)
			break
		}
		tr.record(dep.name+".Open", 0, start, end, 1)
		recoverS = append(recoverS, end.Sub(start).Seconds())
		if !slices.Equal(rec.Strategy().Triples(), r.plan) || !sameBits(rec.Stats().PlanRevenue, r.revenue) {
			r.fail("recovered plan (%d triples, revenue %v) differs from the plan before kill (%d triples, revenue %v)",
				rec.Strategy().Len(), rec.Stats().PlanRevenue, len(r.plan), r.revenue)
		}
		if i == recoveries-1 {
			r.e2e["heap_live_mb"] = heapHeld(baseHeap)
		}
		rec.Kill()
	}
	r.record["recovery_s"] = median(recoverS, "s")
	r.record["recovery_runs_s"] = recoverS
	r.record["setup_s"] = setupS

	r.shape("adopt_ack_from_due_us", ackDue)
	r.shape("batch_from_due_us", batchDue)
	r.e2eQuantile("recommend_p50_us", lat[opRecommend], 0.5, "us")
	r.e2eQuantile("batch_p50_us", lat[opBatch], 0.5, "us")
	r.e2eQuantile("adopt_ack_p50_us", lat[opAdopt], 0.5, "us")
	r.e2eQuantile("adopt_visible_p50_ms", visible, 0.5, "ms")

	r.record["measured_s"] = measured.Seconds()
	r.record["barriers"] = barriers
	r.record["barriers_per_step"] = stepBarriers[1:]
	r.record["engine_replans"] = engReplans
	r.record["adoptions"] = len(acks)

	if tr != nil {
		if dep.name == shardedCluster.name {
			r.layerQuantile("cluster.flush_p50_ms", tr.durations(dep.name+".Flush", time.Millisecond), 0.5, "ms")
			r.layerQuantile("cluster.flush_p99_ms", tr.durations(dep.name+".Flush", time.Millisecond), 0.99, "ms")
			r.layer["cluster.shard_replans_per_barrier"] = ratio(float64(engReplans), float64(barriers), "count", barriers)
		} else {
			r.layerQuantile("serve.flush_p50_ms", tr.durations(dep.name+".Flush", time.Millisecond), 0.5, "ms")
			r.layerQuantile("serve.flush_p99_ms", tr.durations(dep.name+".Flush", time.Millisecond), 0.99, "ms")
		}
		r.layer["serve.replans"] = count(float64(engReplans), "count", barriers)
		r.layer["serve.replans_per_barrier"] = ratio(float64(engReplans), float64(barriers), "count", barriers)
		r.layerQuantile("store.sync_p50_ms", tr.durations(dep.name+".Sync", time.Millisecond), 0.5, "ms")
		events := len(lat[opAdopt])
		r.layer["store.wal_records_per_event"] = ratio(float64(mid.WALNextLSN-before.WALNextLSN), float64(events), "count", events)
		httpMetrics(r, tr)
		shadowMetrics(r, tr)
		goMetrics(rt0, rt1, r.layer)
	}
	return r, nil
}

// recoveries is how many times an ingest run kills and recovers the
// target; the run record reports their median.
const recoveries = 5

// httpMetrics derives the http layer metrics: server time inside
// ServeHTTP, and transport time (client round trip minus server time).
func httpMetrics(r *runResult, tr *tracer) {
	r.layerQuantile("http.adopt_server_p50_us", tr.durations("http.ServeHTTP /v1/adopt", time.Microsecond), 0.5, "us")
	r.layerQuantile("http.adopt_server_p99_us", tr.durations("http.ServeHTTP /v1/adopt", time.Microsecond), 0.99, "us")
	r.layerQuantile("http.batch_server_p50_us", tr.durations("http.ServeHTTP /v1/recommend/batch", time.Microsecond), 0.5, "us")
	server := map[int64]span{} // by parent (client) span ID
	for _, s := range tr.all() {
		if strings.HasPrefix(s.Name, "http.ServeHTTP ") {
			server[s.Parent] = s
		}
	}
	var transport []float64
	for _, c := range tr.all() {
		if strings.HasPrefix(c.Name, "http.GET ") || strings.HasPrefix(c.Name, "http.POST ") {
			if s, ok := server[c.ID]; ok {
				transport = append(transport, float64(c.dur()-s.dur())/float64(time.Microsecond))
			}
		}
	}
	r.layerQuantile("http.transport_p50_us", transport, 0.5, "us")
}

// replayCopy copies the killed data directory and times store.Open plus
// Replay from the newest snapshot over every store in it (one for an
// engine; every shard and the coordinator ledger for a cluster).
func replayCopy(r *runResult, tr *tracer, dir, tmp string) {
	cp, err := os.MkdirTemp(tmp, "replay-")
	if err != nil {
		r.fail("replay copy: %v", err)
		return
	}
	defer os.RemoveAll(cp)
	if err := copyTree(dir, cp); err != nil {
		r.fail("replay copy: %v", err)
		return
	}
	var stores []string
	err = filepath.WalkDir(cp, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && store.DirHasState(path) {
			stores = append(stores, path)
			return filepath.SkipDir
		}
		return nil
	})
	if err != nil {
		r.fail("replay copy: %v", err)
		return
	}
	var total time.Duration
	var records int64
	for _, sd := range stores {
		start := time.Now()
		st, err := store.Open(sd, store.Options{})
		if err != nil {
			r.fail("store open %s: %v", sd, err)
			return
		}
		var from store.LSN
		if snaps := st.Snapshots(); len(snaps) > 0 {
			from = snaps[len(snaps)-1]
		}
		stats, err := st.Replay(from, func(store.LSN, store.Record) error { return nil })
		end := time.Now()
		st.Close()
		if err != nil {
			r.fail("replay %s: %v", sd, err)
			return
		}
		tr.record("store.Replay", 0, start, end, stats.Records)
		total += end.Sub(start)
		records += stats.Records
	}
	r.layer["store.replay_ms"] = count(float64(total)/float64(time.Millisecond), "ms", len(stores))
	r.layer["store.replay_records"] = count(float64(records), "count", len(stores))
}

func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(out, 0o755)
		}
		if !d.Type().IsRegular() {
			return errors.New("unexpected non-regular file " + path)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(out, b, 0o644)
	})
}
