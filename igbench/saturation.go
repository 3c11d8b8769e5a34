package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"incregraph"
	"incregraph/internal/gen"
	"incregraph/internal/graph"
	"incregraph/internal/partition"
)

// Sizes and knobs of the saturation workloads.
const (
	bulkScale    = 16
	churnScale   = 8
	clusterScale = 17
	satRanks     = 2
	churnDelete  = 0.2
	// churnInputs is how many churn inputs a run draws from its seed.
	churnInputs = 32
	// readBatch is the number of vertex IDs in one read call; each
	// saturation job reads its answer with satReadCalls such calls.
	readBatch    = 512
	satReadCalls = 1024
	// setupSamples is how many extra set-ups each job times.
	setupSamples = 4
	// callEvery samples 1 in callEvery stream pulls and callbacks.
	callEvery = 1024
)

// satSpec is one saturation workload: a graph configuration and the
// inputs its jobs ingest to quiescence, one fresh graph per job.
type satSpec struct {
	cfg      incregraph.Config
	programs func() []incregraph.Program
	kinds    []string
	// readAlgo is the program the read calls read.
	readAlgo int
	// members > 1 runs each job as that many cluster members over
	// loopback TCP.
	members int
	// inputs are used by jobs in turn.
	inputs []*satInput
}

// satInput is one generated input with its expected answers.
type satInput struct {
	// inits are the vertices seeded before Run.
	inits   []initVertex
	streams func() []incregraph.Stream
	topo    uint64
	oracles []oracle
	// ids are the read batches.
	ids [][]graph.VertexID
}

func runBulk(r *runner) []job {
	edges := rmatEdges(bulkScale, r.seed)
	src := maxDegreeVertex(edges)
	kinds := []string{"bfs", "sssp", "cc"}
	s := &satSpec{
		cfg: incregraph.Config{Ranks: satRanks, WeightPolicy: incregraph.KeepMinWeight},
		programs: func() []incregraph.Program {
			return []incregraph.Program{incregraph.BFS(), incregraph.SSSP(), incregraph.CC()}
		},
		kinds: kinds,
		// Reads go to CC, the program every workload hosts.
		readAlgo: 2,
		members:  1,
		inputs: []*satInput{{
			inits:   []initVertex{{algo: 0, v: src}, {algo: 1, v: src}},
			streams: func() []incregraph.Stream { return incregraph.SplitEdges(edges, satRanks) },
			topo:    uint64(len(edges)),
			oracles: staticOracles(edges, edges, kinds, src),
			ids:     idBatches(rand.New(rand.NewSource(r.seed)), 64, readBatch, 1<<bulkScale),
		}},
	}
	jobs := r.repeat(s)
	if r.trace {
		r.replayLayer(splitByOwner(edgeEvents(edges), satRanks), uint64(len(edges)))
	}
	return jobs
}

// runChurn gives each job its own input, derived from the seed: the cost
// of a delete flood depends on the graph, so one graph per run would make
// the run's figures depend on which graph the seed drew.
func runChurn(r *runner) []job {
	s := &satSpec{
		cfg:      incregraph.Config{Ranks: satRanks, WeightPolicy: incregraph.KeepMinWeight},
		programs: func() []incregraph.Program { return []incregraph.Program{incregraph.CC()} },
		kinds:    []string{"cc"},
		members:  1,
	}
	var first []graph.EdgeEvent
	for k := int64(0); k < churnInputs; k++ {
		sub := r.seed*churnInputs + k
		edges := rmatEdges(churnScale, sub)
		events := gen.Churn(edges, churnDelete, sub)
		if k == 0 {
			first = events
		}
		s.inputs = append(s.inputs, &satInput{
			streams: func() []incregraph.Stream { return incregraph.SplitEventsByPair(events, satRanks) },
			topo:    uint64(len(events)),
			oracles: staticOracles(survivors(events), edges, s.kinds, 0),
			ids:     idBatches(rand.New(rand.NewSource(sub)), 64, readBatch, 1<<churnScale),
		})
	}
	jobs := r.repeat(s)
	if r.trace {
		r.replayLayer(splitByOwner(first, satRanks), uint64(len(first)))
	}
	return jobs
}

func runCluster(r *runner) []job {
	edges := rmatEdges(clusterScale, r.seed)
	s := &satSpec{
		cfg:      incregraph.Config{Ranks: 1, WeightPolicy: incregraph.KeepMinWeight},
		programs: func() []incregraph.Program { return []incregraph.Program{incregraph.CC()} },
		kinds:    []string{"cc"},
		members:  2,
		inputs: []*satInput{{
			streams: func() []incregraph.Stream { return incregraph.SplitEdges(edges, 2) },
			topo:    uint64(len(edges)),
			oracles: staticOracles(edges, edges, []string{"cc"}, 0),
			ids:     idBatches(rand.New(rand.NewSource(r.seed)), 64, readBatch, 1<<clusterScale),
		}},
	}
	jobs := r.repeat(s)
	if r.trace {
		r.replayLayer(splitByOwner(edgeEvents(edges), 2), uint64(len(edges)))
	}
	return jobs
}

// repeat runs jobs until they have measured r.seconds, and at least three
// of them; a traced run alternates untraced and traced jobs and runs at
// least two of each.
func (r *runner) repeat(s *satSpec) []job {
	var jobs []job
	var timed time.Duration
	var traced int
	for {
		tj := r.trace && len(jobs)%2 == 1
		j := r.satJob(s, s.inputs[len(jobs)%len(s.inputs)], tj)
		if j.wall == 0 {
			break // the graph could not be built; the failure is counted
		}
		jobs = append(jobs, j)
		timed += j.wall
		if tj {
			traced++
		}
		if timed >= r.seconds && len(jobs) >= 3 && (!r.trace || len(jobs)-traced >= 2 && traced >= 2) {
			break
		}
	}
	if r.trace {
		r.callLayer(jobs, s.cfg.Ranks*s.members)
	}
	return jobs
}

// initVertex seeds program algo at vertex v.
type initVertex struct {
	algo int
	v    graph.VertexID
}

// satJob builds fresh graphs, ingests the whole input to quiescence, reads
// the answer and checks it.
func (r *runner) satJob(s *satSpec, in *satInput, traced bool) job {
	j := job{traced: traced}
	streams := in.streams()
	progSets := make([][]incregraph.Program, s.members)
	for m := range progSets {
		progSets[m] = s.programs()
	}
	var pulls, cbs *CallTracer
	var jobSpan int32
	ranks := s.cfg.Ranks * s.members
	if traced {
		jobSpan = r.tr.Begin("job", r.root)
		pulls = r.tr.NewCallTracer("stream.next", callEvery, ranks, -1)
		cbs = r.tr.NewCallTracer("algo.callback", callEvery, ranks, -1)
		var err error
		if streams, err = traceStreams(streams, pulls); err != nil {
			panic(err)
		}
		for _, ps := range progSets {
			for i, p := range ps {
				if ps[i], err = traceProgram(p, cbs); err != nil {
					panic(err)
				}
			}
		}
	}
	gate := make(chan struct{}) // opens the cluster's timed window
	if s.members > 1 {
		for i, st := range streams {
			streams[i] = &gatedStream{inner: st, gate: gate}
		}
	}

	base := liveHeap()
	span := r.begin(traced, "setup", jobSpan)
	members, setup, err := r.setUp(s, in, progSets, streams)
	r.end(traced, span)
	if err != nil {
		r.tally.fail(1, "build graph: %v", err)
		return j
	}
	j.setups = []time.Duration{setup}
	t1 := time.Now()

	heap := startHeapSampler()
	span = r.begin(traced, "ingest", jobSpan)
	if traced {
		pulls.parent, cbs.parent = span, span
	}
	var stats []incregraph.Stats
	var t2 time.Time
	if s.members > 1 {
		close(gate)
		stats = waitAll(members)
		t2 = quiescedAt(members[0], t1)
	} else {
		st, err := members[0].Run(streams...)
		r.tally.check(err == nil, "run: %v", err)
		stats = []incregraph.Stats{st}
		t2 = time.Now()
	}
	r.end(traced, span)
	j.wall = t2.Sub(t1)
	j.busy = j.wall
	j.updates = []time.Duration{j.wall}

	j.heapPeak = heap.Stop()
	var topo, stored uint64
	for _, st := range stats {
		topo += st.TopoEvents
		stored += st.Edges
	}
	j.topo = topo
	// The collection fences the heap figure and also settles the heap, so
	// that background collection does not share the CPU with the reads.
	if after := liveHeap(); after > base {
		j.liveBytesPerEdge = float64(after-base) / float64(max(stored, 1))
	}
	span = r.begin(traced, "read", jobSpan)
	r.satReads(s, in, members, &j, traced, span)
	r.end(traced, span)
	r.tally.check(topo == in.topo, "ingested %d topology events, want %d", topo, in.topo)

	span = r.begin(traced, "verify", jobSpan)
	r.verifyMembers(s, in, members)
	r.end(traced, span)
	j.setups = append(j.setups, r.extraSetups(s, in)...)
	if traced {
		j.layer = engineLayer(members)
		pulls.Flush()
		cbs.Flush()
		r.tr.End(jobSpan)
	}
	runtime.KeepAlive(members)
	logJob("saturation", j)
	return j
}

// setUp builds the job's graphs and seeds them. A cluster is also started:
// Start blocks until the mesh is up, so it belongs to set-up, while the
// gated streams hold ingestion back until the timed window opens.
func (r *runner) setUp(s *satSpec, in *satInput, progSets [][]incregraph.Program, streams []incregraph.Stream) ([]*incregraph.Graph, time.Duration, error) {
	t0 := time.Now()
	members, err := newMembers(s, progSets)
	if err != nil {
		return nil, 0, err
	}
	for _, iv := range in.inits {
		members[0].InitVertex(iv.algo, iv.v)
	}
	if s.members > 1 {
		startAll(members, streams, &r.tally)
	}
	return members, time.Since(t0), nil
}

// extraSetups times setupSamples more set-ups that ingest nothing, so the
// set-up median rests on more than one sample per job.
func (r *runner) extraSetups(s *satSpec, in *satInput) []time.Duration {
	var out []time.Duration
	for i := 0; i < setupSamples; i++ {
		progSets := make([][]incregraph.Program, s.members)
		for m := range progSets {
			progSets[m] = s.programs()
		}
		gate := make(chan struct{})
		var streams []incregraph.Stream
		if s.members > 1 {
			for _, st := range incregraph.SplitEdges(nil, s.members*s.cfg.Ranks) {
				streams = append(streams, &gatedStream{inner: st, gate: gate})
			}
		}
		members, d, err := r.setUp(s, in, progSets, streams)
		if err != nil {
			r.tally.fail(1, "build graph: %v", err)
			continue
		}
		out = append(out, d)
		if s.members > 1 {
			close(gate)
			waitAll(members)
			continue
		}
		if err := members[0].Stop(context.Background()); err != nil {
			r.tally.fail(1, "stop an idle graph: %v", err)
		}
	}
	return out
}

func newMembers(s *satSpec, progSets [][]incregraph.Program) ([]*incregraph.Graph, error) {
	if s.members == 1 {
		return []*incregraph.Graph{incregraph.New(s.cfg, progSets[0]...)}, nil
	}
	out := make([]*incregraph.Graph, s.members)
	for m := range out {
		cfg := s.cfg
		cc := &incregraph.ClusterConfig{Proc: m, Procs: s.members, Listen: "127.0.0.1:0"}
		if m > 0 {
			cc.Join = out[0].ClusterAddr()
		}
		if m == s.members-1 && m > 0 {
			cc.Listen = ""
		}
		cfg.Cluster = cc
		g, err := incregraph.NewCluster(cfg, progSets[m]...)
		if err != nil {
			return nil, fmt.Errorf("cluster member %d: %w", m, err)
		}
		out[m] = g
	}
	return out, nil
}

// startAll starts every member at once (each Start waits for the mesh).
func startAll(members []*incregraph.Graph, streams []incregraph.Stream, t *tally) {
	var wg sync.WaitGroup
	errs := make([]error, len(members))
	for i := range members {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = members[i].Start(streams...)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		t.check(err == nil, "start member %d: %v", i, err)
	}
}

// quiescedAt returns when the coordinator g decided that the cluster was
// quiescent, from its flight recorder; Wait returns only after the
// transport has shut down, which is not part of the ingest. Without a
// recorded decision after start it falls back to now.
func quiescedAt(g *incregraph.Graph, start time.Time) time.Time {
	for _, e := range g.FlightRecord() {
		if e.Kind == "terminate" && e.Detail == "decided" && e.UnixNanos > start.UnixNano() {
			return time.Unix(0, e.UnixNanos)
		}
	}
	return time.Now()
}

func waitAll(members []*incregraph.Graph) []incregraph.Stats {
	out := make([]incregraph.Stats, len(members))
	for i, m := range members {
		out[i] = m.Wait()
	}
	return out
}

// satReads reads the converged answer in 512-id calls through Query on
// each ID's owning member, timing every call; the values are checked
// after the timing.
func (r *runner) satReads(s *satSpec, in *satInput, members []*incregraph.Graph, j *job, traced bool, parent int32) {
	owner := partition.NewHashed(s.cfg.Ranks * s.members)
	vals := make([]incregraph.QueryResult, readBatch)
	o := in.oracles[s.readAlgo]
	for i := 0; i < satReadCalls; i++ {
		ids := in.ids[i%len(in.ids)]
		span := r.begin(traced, "read.batch", parent)
		t := time.Now()
		for k, v := range ids {
			m := 0
			if s.members > 1 {
				m = owner.Owner(v) / s.cfg.Ranks
			}
			vals[k] = members[m].Query(s.readAlgo, v)
		}
		j.reads = append(j.reads, time.Since(t))
		r.end(traced, span)
		bad := 0
		for k, v := range ids {
			want, ok := o.present[v], vals[k].Exists
			if want != ok || ok && vals[k].Value != o.want[v] {
				bad++
			}
		}
		r.tally.check(bad == 0, "read call %d: %d of %d values wrong", i, bad, len(ids))
	}
	for _, d := range j.reads {
		j.readWall += d
	}
	j.readIDs = uint64(satReadCalls * readBatch)
}

// verifyMembers diffs the converged state of every program against its
// static oracle; cluster shards are unioned and must be disjoint.
func (r *runner) verifyMembers(s *satSpec, in *satInput, members []*incregraph.Graph) {
	for i, m := range members {
		err := m.Err()
		r.tally.check(err == nil, "member %d: engine error: %v", i, err)
		if err != nil && len(members) > 1 {
			// The flight recorder says how the cluster wound down.
			for k, mm := range members {
				rec := mm.FlightRecord()
				for _, e := range rec[max(len(rec)-24, 0):] {
					fmt.Fprintf(os.Stderr, "igbench: member %d flight %d %s peer=%d %s %d %d\n",
						k, e.UnixNanos%1e9, e.Kind, e.Peer, e.Detail, e.A, e.B)
				}
			}
		}
	}
	for a, o := range in.oracles {
		var got []incregraph.VertexValue
		seen := map[graph.VertexID]bool{}
		dups := 0
		for _, m := range members {
			for _, p := range m.Collect(a) {
				if seen[p.ID] {
					dups++
				}
				seen[p.ID] = true
				got = append(got, p)
			}
		}
		bad := o.mismatches(got) + dups
		r.tally.ok(len(got) - min(bad, len(got)))
		if bad > 0 {
			r.tally.fail(bad, "%s: %d vertices disagree with the static oracle", s.kinds[a], bad)
		}
	}
}

// begin and end record a benchmark-side span on a traced job.
func (r *runner) begin(traced bool, name string, parent int32) int32 {
	if !traced {
		return -1
	}
	return r.tr.Begin(name, parent)
}

func (r *runner) end(traced bool, id int32) {
	if traced {
		r.tr.End(id)
	}
}

// engineLayer reads the per-layer counters of a finished job from Stats().
func engineLayer(members []*incregraph.Graph) map[string]float64 {
	var ev incregraph.EventCounts
	var selfDel, sent, flushes, combined, hwm uint64
	var compactions, segScan, deltaScan uint64
	var wireBytes, wireEvents, wireFrames uint64
	var rtts []float64
	for _, m := range members {
		st := m.Stats()
		ev.Adds += st.Events.Adds
		ev.Deletes += st.Events.Deletes
		ev.ReverseAdds += st.Events.ReverseAdds
		ev.Updates += st.Events.Updates
		ev.Inits += st.Events.Inits
		ev.ReverseDeletes += st.Events.ReverseDeletes
		ev.Signals += st.Events.Signals
		ev.Invalidates += st.Events.Invalidates
		selfDel += st.SelfDelivered
		sent += st.MessagesSent
		flushes += st.Flushes
		combined += st.CombinedAway
		hwm = max(hwm, st.MailboxHWM)
		compactions += st.Storage.Compactions
		segScan += st.Storage.SegScanned
		deltaScan += st.Storage.DeltaScanned
		for _, p := range st.Transport.Peers {
			wireBytes += p.SentBytes
			wireEvents += p.SentEvents
			wireFrames += p.SentFrames
			rtts = append(rtts, us(p.AckRTT.Quantile(0.5)))
		}
	}
	delivered := float64(selfDel + sent)
	return map[string]float64{
		"graph.compactions":         float64(compactions),
		"graph.delta_hit_rate":      ratio(float64(deltaScan), float64(segScan+deltaScan)),
		"core.algo_events_per_topo": ratio(float64(ev.Algo()), float64(ev.Topo())),
		"core.self_delivered_frac":  ratio(float64(selfDel), delivered),
		"core.ev_per_flush":         ratio(float64(sent), float64(flushes)),
		"core.combined_away_frac":   ratio(float64(combined), float64(combined)+delivered),
		"core.mailbox_hwm":          float64(hwm),
		"core.inv_per_delete":       ratio(float64(ev.Invalidates), float64(ev.Deletes)),
		"core.deletes":              float64(ev.Deletes),
		"transport.bytes_per_event": ratio(float64(wireBytes), float64(wireEvents)),
		"transport.ev_per_frame":    ratio(float64(wireEvents), float64(wireFrames)),
		"transport.frames":          float64(wireFrames),
		"transport.ack_rtt_p50_us":  median(rtts),
	}
}

// callLayer derives the stream and callback figures of a traced run from
// the spans of its traced jobs.
func (r *runner) callLayer(jobs []job, ranks int) {
	self, calls := r.tr.SelfByName()
	var n, topo float64
	var wall time.Duration
	for _, j := range jobs {
		if j.traced {
			n++
			topo += float64(j.topo)
			wall += j.wall
		}
	}
	r.setLayer("stream.pulls", ratio(float64(calls["stream.next"]), n))
	r.setLayer("stream.pull_self_ms", ratio(ms(self["stream.next"]), n))
	r.setLayer("algo.callbacks_per_topo", ratio(float64(calls["algo.callback"]), topo))
	r.setLayer("algo.callback_self_ms", ratio(ms(self["algo.callback"]), n))
	r.setLayer("algo.busy_share", ratio(self["algo.callback"].Seconds(), float64(ranks)*wall.Seconds()))
}

func (r *runner) setLayer(name string, v float64) {
	if r.layer == nil {
		r.layer = map[string]float64{}
	}
	r.layer[name] = v
}
