package main

import (
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"incregraph"
	"incregraph/internal/graph"
)

// Sizes and schedule of the live workload.
const (
	liveScale  = 16
	liveRanks  = 2
	burstEdges = 64
	// burstPeriod schedules 500 bursts per second.
	burstPeriod = 2 * time.Millisecond
	// drainDeadline is how long one Drain may take before it counts as
	// failed.
	drainDeadline = 2 * time.Second
	// liveRounds splits a run into rounds, each with its own graph, so
	// that set-up and every percentile are medians over rounds.
	liveRounds = 5
	// liveWarmUp is the burst window of the unmeasured first round.
	liveWarmUp = time.Second
	// readEvery samples 1 in readEvery read calls as spans.
	readEvery = 16
)

// runLive serves reads while a writer pushes bursts on a fixed schedule.
// Each round builds a fresh graph, so set-up is measured once per round;
// the rounds share the run's seconds. A traced run alternates untraced and
// traced rounds.
func runLive(r *runner) []job {
	edges := rmatEdges(liveScale, r.seed)
	ids := idBatches(rand.New(rand.NewSource(r.seed)), 64, readBatch, 1<<liveScale)
	rounds := liveRounds
	if r.trace {
		rounds++ // untraced and traced rounds alternate
	}
	// A first round in a fresh process pays for heap growth and page
	// faults that a long-lived server pays once; it is checked but not
	// measured.
	r.liveJob(edges, ids, liveWarmUp, false)
	var jobs []job
	for k := 0; k < rounds; k++ {
		jobs = append(jobs, r.liveJob(edges, ids, r.seconds/time.Duration(rounds), r.trace && k%2 == 1))
	}
	if r.trace {
		r.callLayer(jobs, liveRanks)
	}
	return jobs
}

// liveReader is the concurrent reader's outcome.
type liveReader struct {
	reads         []time.Duration
	ids           uint64
	wall          time.Duration
	checked, bad  int
	staleSum      uint64
	staleSamples  uint64
	monotoneFirst string
}

func (r *runner) liveJob(edges []graph.Edge, batches [][]graph.VertexID, window time.Duration, traced bool) job {
	j := job{traced: traced}
	prefix := len(edges) * 3 / 4
	prog := incregraph.CC()
	var cbs *CallTracer
	var jobSpan int32
	if traced {
		jobSpan = r.tr.Begin("job", r.root)
		cbs = r.tr.NewCallTracer("algo.callback", callEvery, liveRanks, -1)
		var err error
		if prog, err = traceProgram(prog, cbs); err != nil {
			panic(err)
		}
	}

	base := liveHeap()
	span := r.begin(traced, "setup", jobSpan)
	t0 := time.Now()
	g := incregraph.New(incregraph.Config{Ranks: liveRanks, Serve: true}, prog)
	streams := []*incregraph.LiveStream{incregraph.NewLiveStream(), incregraph.NewLiveStream()}
	if err := g.Start(streams[0], streams[1]); err != nil {
		r.tally.fail(1, "start: %v", err)
		return j
	}
	for i, e := range edges[:prefix] {
		streams[i%liveRanks].PushEdge(e)
	}
	g.Drain(streams...)
	t1 := time.Now()
	r.end(traced, span)
	j.setups = []time.Duration{t1.Sub(t0)}

	heap := startHeapSampler()
	window0 := r.begin(traced, "window", jobSpan)
	if traced {
		// Count only the window's callbacks: the ranks are idle after the
		// set-up Drain, and the first Push orders this before their next.
		cbs.Reset()
		cbs.parent = window0
	}
	serve0 := g.Stats().Serve
	var stop atomic.Bool
	var wg sync.WaitGroup
	var rd liveReader
	var lane *CallTracer
	if traced {
		lane = r.tr.NewCallTracer("serve.read_batch", readEvery, 1, window0)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rd = readLoop(g, batches, &stop, lane)
	}()

	var lates []time.Duration
	var lagMax int
	var drains []time.Duration
	next := prefix
	for k := 0; next < len(edges); k++ {
		due := t1.Add(time.Duration(k) * burstPeriod)
		if due.Sub(t1) >= window {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		pushAt := time.Now()
		lates = append(lates, pushAt.Sub(due))
		end := min(next+burstEdges, len(edges))
		for i, e := range edges[next:end] {
			streams[i%liveRanks].PushEdge(e)
		}
		next = end
		if traced {
			lagMax = max(lagMax, streams[0].Pending()+streams[1].Pending())
		}
		ds := r.begin(traced, "core.drain", window0)
		drainAt := time.Now()
		g.Drain(streams...)
		done := time.Now()
		r.end(traced, ds)
		j.updates = append(j.updates, done.Sub(due))
		j.busy += done.Sub(pushAt)
		drains = append(drains, done.Sub(drainAt))
		r.tally.check(done.Sub(drainAt) <= drainDeadline, "drain took %v", done.Sub(drainAt))
	}
	t2 := time.Now()
	stop.Store(true)
	wg.Wait()
	r.end(traced, window0)
	serve1 := g.Stats().Serve
	j.heapPeak = heap.Stop()
	j.wall = t2.Sub(t1)
	j.topo = uint64(next - prefix)
	j.reads, j.readIDs, j.readWall = rd.reads, rd.ids, rd.wall
	r.tally.ok(rd.checked - rd.bad)
	if rd.bad > 0 {
		r.tally.fail(rd.bad, "reads went backwards %d times, first: %s", rd.bad, rd.monotoneFirst)
	}

	for _, s := range streams {
		s.Close()
	}
	st := g.Wait()
	if after := liveHeap(); after > base {
		j.liveBytesPerEdge = float64(after-base) / float64(max(st.Edges, 1))
	}
	r.tally.check(st.TopoEvents == uint64(next), "ingested %d topology events, pushed %d", st.TopoEvents, next)

	span = r.begin(traced, "verify", jobSpan)
	r.tally.check(g.Err() == nil, "engine error: %v", g.Err())
	want := incregraph.StaticCC(g.Topology())
	got := g.Collect(0)
	bad := 0
	for _, p := range got {
		if int(p.ID) >= len(want) || want[p.ID] != p.Val {
			bad++
		}
	}
	r.tally.ok(len(got) - bad)
	if bad > 0 {
		r.tally.fail(bad, "cc: %d vertices disagree with the static oracle", bad)
	}
	r.end(traced, span)

	if traced {
		j.layer = engineLayer([]*incregraph.Graph{g})
		j.layer["stream.lag_max"] = float64(lagMax)
		var drainSum time.Duration
		for _, d := range drains {
			drainSum += d
		}
		j.layer["core.drain_wait_ms"] = ms(drainSum) / float64(len(drains))
		j.layer["core.drain_p99_ms"] = ms(quantile(drains, 0.99))
		var readNS time.Duration
		for _, d := range rd.reads {
			readNS += d
		}
		j.layer["serve.read_ns_per_id"] = ratio(float64(readNS), float64(rd.ids))
		j.layer["serve.staleness_epochs"] = ratio(float64(rd.staleSum), float64(rd.staleSamples))
		j.layer["serve.publishes_per_s"] = float64(serve1.Publishes-serve0.Publishes) / j.wall.Seconds()
		j.layer["serve.epochs"] = float64(serve1.Epoch - serve0.Epoch)
		j.layer["gen.late_p99_ms"] = ms(quantile(lates, 0.99))
		j.layer["gen.late_max_ms"] = ms(quantile(lates, 1))
		cbs.Flush()
		lane.Flush()
		r.tr.End(jobSpan)
	}
	runtime.KeepAlive(g)
	logJob("live", j)
	return j
}

// readLoop reads 512 uniform IDs per call until stop is set, timing each
// call. It checks that the served epoch never decreases and that no CC
// label grows between reads (labels only fall as edges arrive).
func readLoop(g *incregraph.Graph, batches [][]graph.VertexID, stop *atomic.Bool, lane *CallTracer) liveReader {
	var rd liveReader
	last := make([]uint64, 1<<liveScale)
	for i := range last {
		last[i] = ^uint64(0)
	}
	out := make([]incregraph.ReadValue, 0, readBatch)
	var lastEpoch uint64
	start := time.Now()
	for i := 0; !stop.Load(); i++ {
		ids := batches[i%len(batches)]
		var sp int64 = -1
		if lane != nil {
			sp = lane.begin(0)
		}
		t := time.Now()
		vals, epoch := g.ReadBatch(0, ids, out[:0])
		rd.reads = append(rd.reads, time.Since(t))
		if lane != nil {
			lane.end(0, sp)
			if now := g.ServeEpoch(); now > epoch {
				rd.staleSum += now - epoch
			}
			rd.staleSamples++
		}
		rd.ids += uint64(len(ids))
		rd.checked++
		ok := epoch >= lastEpoch
		lastEpoch = epoch
		for _, v := range vals {
			if !v.Found {
				continue
			}
			if v.Val > last[v.Vertex] {
				ok = false
			}
			last[v.Vertex] = v.Val
		}
		if !ok {
			rd.bad++
			if rd.monotoneFirst == "" {
				rd.monotoneFirst = "call " + strconv.Itoa(i)
			}
		}
		// Yield between calls, as a request handler waits on its
		// connection: a spinning reader would hold a CPU until the Go
		// scheduler preempts it and add its time slice to every update.
		runtime.Gosched()
	}
	rd.wall = time.Since(start)
	return rd
}
