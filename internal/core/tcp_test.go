package core_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"incregraph/internal/algo"
	"incregraph/internal/core"
	"incregraph/internal/gen"
	"incregraph/internal/graph"
	"incregraph/internal/stream"
)

// twoNodeCluster builds two engines joined by a loopback TCP transport:
// node 0 listens on an ephemeral port, node 1 joins it. Each hosts
// ranksPer of the 2*ranksPer global ranks.
func twoNodeCluster(t *testing.T, ranksPer int, opts core.Options, mkPrograms func() []core.Program) (e0, e1 *core.Engine) {
	t.Helper()
	t0, err := core.NewTCPTransport(core.TCPConfig{
		Node: 0, Nodes: 2, RanksPerNode: ranksPer, Listen: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	t1, err := core.NewTCPTransport(core.TCPConfig{
		Node: 1, Nodes: 2, RanksPerNode: ranksPer, Join: t0.ListenAddr(),
	})
	if err != nil {
		t.Fatal(err)
	}
	o0, o1 := opts, opts
	o0.Ranks, o1.Ranks = 2*ranksPer, 2*ranksPer
	o0.Transport, o1.Transport = t0, t1
	return core.New(o0, mkPrograms()...), core.New(o1, mkPrograms()...)
}

// runCluster starts both engines concurrently (Start blocks on the mesh)
// against the same global stream slice and waits for distributed
// termination.
func runCluster(t *testing.T, e0, e1 *core.Engine, streams []stream.Stream) {
	t.Helper()
	var wg sync.WaitGroup
	for _, e := range []*core.Engine{e0, e1} {
		wg.Add(1)
		go func(e *core.Engine) {
			defer wg.Done()
			if _, err := e.Run(streams); err != nil {
				t.Errorf("cluster run: %v", err)
			}
		}(e)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("cluster run did not terminate")
	}
	if err := e0.Err(); err != nil {
		t.Fatalf("node 0: %v", err)
	}
	if err := e1.Err(); err != nil {
		t.Fatalf("node 1: %v", err)
	}
}

// mergeCollect merges the two nodes' disjoint local shards into one global
// vertex->value map.
func mergeCollect(t *testing.T, e0, e1 *core.Engine, algoIdx int) map[graph.VertexID]uint64 {
	t.Helper()
	out := e0.CollectMap(algoIdx)
	for v, val := range e1.CollectMap(algoIdx) {
		if prev, dup := out[v]; dup && prev != val {
			t.Fatalf("vertex %d present on both nodes with values %d and %d", v, prev, val)
		} else if dup {
			t.Fatalf("vertex %d present on both nodes (shards not disjoint)", v)
		}
		out[v] = val
	}
	return out
}

// TestTCPTwoNodeMatchesSingleProcess is the transport's core differential:
// a 2-process loopback run (2 ranks per node) must converge to exactly
// the state of a single-process 4-rank run, for a program with remote
// inits and heavy cascades (BFS) and one without inits (CC).
func TestTCPTwoNodeMatchesSingleProcess(t *testing.T) {
	edges := gen.ErdosRenyi(400, 3200, 42, 1)
	gen.Shuffle(edges, 7)
	source := edges[0].Src
	streams := func() []stream.Stream { return stream.Split(edges, 4) }
	programs := func() []core.Program { return []core.Program{algo.BFS{}, algo.CC{}} }

	// Reference: one process, inproc transport, same global rank count.
	ref := core.New(core.Options{Ranks: 4, Undirected: true}, programs()...)
	ref.InitVertex(0, source)
	if _, err := ref.Run(streams()); err != nil {
		t.Fatal(err)
	}
	wantBFS := ref.CollectMap(0)
	wantCC := ref.CollectMap(1)

	e0, e1 := twoNodeCluster(t, 2, core.Options{Undirected: true}, programs)
	// Init only on node 0: if the source's owner rank lives on node 1, the
	// event must ride the pre-start EXT buffer across the wire.
	e0.InitVertex(0, source)
	runCluster(t, e0, e1, streams())

	gotBFS := mergeCollect(t, e0, e1, 0)
	gotCC := mergeCollect(t, e0, e1, 1)
	if len(gotBFS) != len(wantBFS) || len(gotCC) != len(wantCC) {
		t.Fatalf("cluster reached %d/%d vertices, single-process %d/%d",
			len(gotBFS), len(gotCC), len(wantBFS), len(wantCC))
	}
	for v, want := range wantBFS {
		if got := gotBFS[v]; got != want {
			t.Fatalf("BFS: vertex %d = %d, want %d", v, got, want)
		}
	}
	for v, want := range wantCC {
		if got := gotCC[v]; got != want {
			t.Fatalf("CC: vertex %d = %d, want %d", v, got, want)
		}
	}

	// The termination protocol's own invariant, read back through stats:
	// everything node 0 sent node 1 arrived, and vice versa.
	s0 := e0.EngineStats().Transport
	s1 := e1.EngineStats().Transport
	if s0.Kind != "tcp" || s1.Kind != "tcp" {
		t.Fatalf("transport kinds %q/%q, want tcp", s0.Kind, s1.Kind)
	}
	if len(s0.Peers) != 1 || len(s1.Peers) != 1 {
		t.Fatalf("peer counts %d/%d, want 1/1", len(s0.Peers), len(s1.Peers))
	}
	if s0.Peers[0].SentEvents != s1.Peers[0].RecvEvents {
		t.Fatalf("node0 sent %d events, node1 received %d",
			s0.Peers[0].SentEvents, s1.Peers[0].RecvEvents)
	}
	if s1.Peers[0].SentEvents != s0.Peers[0].RecvEvents {
		t.Fatalf("node1 sent %d events, node0 received %d",
			s1.Peers[0].SentEvents, s0.Peers[0].RecvEvents)
	}
	if s0.Peers[0].SentEvents == 0 && s1.Peers[0].SentEvents == 0 {
		t.Fatalf("no events crossed the wire — the partition never split across nodes")
	}

	// Per-peer transport telemetry: byte counters and the frame-size /
	// ack-RTT histograms must have recorded the traffic just measured.
	for name, p := range map[string]core.PeerTransportStats{"node0": s0.Peers[0], "node1": s1.Peers[0]} {
		if p.SentBytes == 0 || p.RecvBytes == 0 {
			t.Errorf("%s: byte counters empty: sent=%d recv=%d", name, p.SentBytes, p.RecvBytes)
		}
		if p.FrameBytes.Count == 0 || p.FrameBytes.Count != p.SentFrames {
			t.Errorf("%s: frame-size histogram count %d, want %d (one sample per sent frame)",
				name, p.FrameBytes.Count, p.SentFrames)
		}
		if p.AckRTT.Count == 0 {
			t.Errorf("%s: ack-RTT histogram empty with %d events sent", name, p.SentEvents)
		}
	}
	// The flight recorder is always on: a cluster run must have recorded
	// protocol-level events on both nodes.
	if f := e0.EngineStats().Flight; f.Recorded == 0 || f.Capacity == 0 {
		t.Errorf("node0 flight recorder empty: %+v", f)
	}
	if len(e0.FlightRecord()) == 0 {
		t.Error("node0 FlightRecord returned no entries")
	}
}

// TestTCPNoCoalesceMatches repeats the differential with monotone
// coalescing disabled (the main differential runs with it on, BFS's
// default): the converged state must be identical either way, and the
// coalescing run must not confuse the termination counters — merged
// UPDATEs die before they are sent or counted.
func TestTCPNoCoalesceMatches(t *testing.T) {
	edges := gen.ErdosRenyi(300, 2400, 9, 1)
	gen.Shuffle(edges, 3)
	source := edges[0].Src
	programs := func() []core.Program { return []core.Program{algo.BFS{}} }

	ref := core.New(core.Options{Ranks: 4, Undirected: true, NoCoalesce: true}, programs()...)
	ref.InitVertex(0, source)
	if _, err := ref.Run(stream.Split(edges, 4)); err != nil {
		t.Fatal(err)
	}
	want := ref.CollectMap(0)

	e0, e1 := twoNodeCluster(t, 2, core.Options{Undirected: true, NoCoalesce: true}, programs)
	e0.InitVertex(0, source)
	runCluster(t, e0, e1, stream.Split(edges, 4))
	got := mergeCollect(t, e0, e1, 0)
	if len(got) != len(want) {
		t.Fatalf("cluster reached %d vertices, single-process %d", len(got), len(want))
	}
	for v, w := range want {
		if got[v] != w {
			t.Fatalf("vertex %d = %d, want %d", v, got[v], w)
		}
	}
}

// TestTCPRemoteModeRestrictions: the documented scope cuts hold — Pause
// and StartSim refuse a multi-process engine — while the lineage sampler
// stays enabled (cross-process lineage ships since wire v3).
func TestTCPRemoteModeRestrictions(t *testing.T) {
	tr, err := core.NewTCPTransport(core.TCPConfig{
		Node: 0, Nodes: 2, RanksPerNode: 1, Listen: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	e := core.New(core.Options{Ranks: 2, Transport: tr, SampleEvery: 64}, algo.BFS{})
	if err := e.Pause(); err == nil {
		t.Fatal("Pause succeeded on a multi-process engine")
	}
	if _, err := e.StartSim(nil); err == nil {
		t.Fatal("StartSim succeeded with a TCP transport")
	}
	if s := e.EngineStats(); s.Latency.SampleEvery != 64 {
		t.Fatalf("lineage sampler disabled on a multi-process engine (SampleEvery=%d, want 64)",
			s.Latency.SampleEvery)
	}
	// The engine was never started; it still owns the listener. Release it.
	if err := e.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	e.Wait()
}

// TestTCPConfigValidation: the constructor rejects malformed worlds, and
// bind rejects a rank-count mismatch.
func TestTCPConfigValidation(t *testing.T) {
	bad := []core.TCPConfig{
		{Node: 2, Nodes: 2, RanksPerNode: 1, Listen: "127.0.0.1:0"}, // node out of range
		{Node: 0, Nodes: 2, RanksPerNode: 1},                        // coordinator without Listen
		{Node: 1, Nodes: 2, RanksPerNode: 1},                        // follower without Join
		{Node: 0, Nodes: 1, RanksPerNode: 0, Listen: ""},            // zero ranks per node → defaulted to 1, valid
	}
	for i, cfg := range bad[:3] {
		if _, err := core.NewTCPTransport(cfg); err == nil {
			t.Errorf("case %d: NewTCPTransport accepted %+v", i, cfg)
		}
	}
	if _, err := core.NewTCPTransport(bad[3]); err != nil {
		t.Errorf("single-node config rejected: %v", err)
	}

	tr, err := core.NewTCPTransport(core.TCPConfig{Node: 0, Nodes: 2, RanksPerNode: 2, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("New accepted an engine/transport rank mismatch")
		} else if !strings.Contains(fmt.Sprint(r), "ranks") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	core.New(core.Options{Ranks: 3, Transport: tr}, algo.BFS{})
}

// nodeCluster generalizes twoNodeCluster to n nodes in one process: node 0
// coordinates, every node that a higher-numbered node must dial listens on
// an ephemeral port.
func nodeCluster(t *testing.T, nodes, ranksPer int, opts core.Options, mkPrograms func() []core.Program) []*core.Engine {
	t.Helper()
	trs := make([]core.Transport, nodes)
	t0, err := core.NewTCPTransport(core.TCPConfig{
		Node: 0, Nodes: nodes, RanksPerNode: ranksPer, Listen: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	trs[0] = t0
	for i := 1; i < nodes; i++ {
		cfg := core.TCPConfig{
			Node: i, Nodes: nodes, RanksPerNode: ranksPer, Join: t0.ListenAddr(),
		}
		if i < nodes-1 {
			cfg.Listen = "127.0.0.1:0" // higher-numbered nodes dial this one
		}
		tr, err := core.NewTCPTransport(cfg)
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
	}
	engines := make([]*core.Engine, nodes)
	for i := range engines {
		o := opts
		o.Ranks = nodes * ranksPer
		o.Transport = trs[i]
		engines[i] = core.New(o, mkPrograms()...)
	}
	return engines
}

func runEngines(t *testing.T, engines []*core.Engine, streams []stream.Stream) {
	t.Helper()
	var wg sync.WaitGroup
	for _, e := range engines {
		wg.Add(1)
		go func(e *core.Engine) {
			defer wg.Done()
			if _, err := e.Run(streams); err != nil {
				t.Errorf("cluster run: %v", err)
			}
		}(e)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("cluster run did not terminate")
	}
	for i, e := range engines {
		if err := e.Err(); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
}

// TestTCPClusterLineageStitch is the tentpole differential for cross-rank
// lineage: at 2 and at 3 TCP processes, a sampled cascade whose children
// crossed a process boundary must finalize at its origin with the remote
// fragments stitched in — a single tree whose nodes were recorded on ranks
// of at least two distinct processes, rendered by Tree().
func TestTCPClusterLineageStitch(t *testing.T) {
	for _, nodes := range []int{2, 3} {
		nodes := nodes
		t.Run(fmt.Sprintf("%dnodes", nodes), func(t *testing.T) {
			const ranksPer = 2
			edges := gen.ErdosRenyi(300, 2400, 11, 1)
			gen.Shuffle(edges, 5)
			opts := core.Options{Undirected: true, SampleEvery: 1, LineageKeep: 512}
			programs := func() []core.Program { return []core.Program{algo.BFS{}} }
			engines := nodeCluster(t, nodes, ranksPer, opts, programs)
			engines[0].InitVertex(0, edges[0].Src)
			runEngines(t, engines, stream.Split(edges, nodes*ranksPer))

			// Federation outlives the mesh: each node exchanged a parting
			// stats snapshot with its TERMINATE, so a post-run poll on any
			// node still covers the whole cluster.
			for _, e := range engines {
				cs := e.ClusterStats(time.Second)
				if len(cs) != nodes {
					t.Fatalf("post-run ClusterStats returned %d of %d nodes: %+v", len(cs), nodes, cs)
				}
				for i, ns := range cs {
					if ns.Node != i {
						t.Fatalf("post-run ClusterStats out of order: %+v", cs)
					}
					if ns.Stats.Ranks != nodes*ranksPer {
						t.Errorf("node %d parting snapshot reports %d ranks, want %d",
							i, ns.Stats.Ranks, nodes*ranksPer)
					}
				}
			}

			// Each node finalizes the lineages its own ranks originated;
			// remote fragments arrive as LINEAGE delta reports before the
			// termination decision (they ride the same FIFO connections).
			var stitched []core.Lineage
			total := 0
			for _, e := range engines {
				for _, l := range e.Lineages() {
					total++
					if len(l.Procs()) >= 2 {
						stitched = append(stitched, l)
					}
				}
			}
			if total == 0 {
				t.Fatal("no lineages completed at all")
			}
			if len(stitched) == 0 {
				t.Fatalf("none of %d completed lineages crossed a process boundary", total)
			}
			l := stitched[0]
			procs := make(map[int]bool)
			for _, n := range l.Nodes {
				procs[n.Rank/ranksPer] = true
			}
			if len(procs) < 2 {
				t.Fatalf("stitched lineage's nodes were recorded by ranks of %d process(es): %+v",
					len(procs), l.Procs())
			}
			tree := l.Tree()
			if lines := strings.Count(tree, "\n"); lines < len(l.Nodes) {
				t.Fatalf("Tree() rendered %d lines for %d nodes:\n%s", lines, len(l.Nodes), tree)
			}
			for _, n := range l.Nodes {
				if !strings.Contains(tree, fmt.Sprintf("rank=%d", n.Rank)) {
					t.Fatalf("Tree() lost the node recorded on rank %d:\n%s", n.Rank, tree)
				}
			}
		})
	}
}

// TestTCPStallWatchdogFiresOnDroppedTerminate is the fault-injection proof
// the watchdog works: node 0's transport silently drops the TERMINATE owed
// to node 1, so node 1 sits quiescent with its streams done and no
// termination decision — exactly the no-progress-while-not-done state the
// watchdog exists for. It must fire within the configured deadline, retain
// a dump naming the stalled peer (the coordinator, source of the missing
// TERMINATE), and never kill the run. While both transports are still up,
// the same topology serves the federated stats poll.
func TestTCPStallWatchdogFiresOnDroppedTerminate(t *testing.T) {
	t0, err := core.NewTCPTransport(core.TCPConfig{
		Node: 0, Nodes: 2, RanksPerNode: 1, Listen: "127.0.0.1:0",
		StallTimeout: -1, // node 0 finishes normally; only node 1 watches
	})
	if err != nil {
		t.Fatal(err)
	}
	t1, err := core.NewTCPTransport(core.TCPConfig{
		Node: 1, Nodes: 2, RanksPerNode: 1, Join: t0.ListenAddr(),
		StallTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t0.SetDropFrames(func(peer int, frame string) bool {
		return peer == 1 && frame == "TERMINATE"
	})

	edges := gen.ErdosRenyi(80, 400, 21, 1)
	programs := []core.Program{algo.CC{}}
	e0 := core.New(core.Options{Ranks: 2, Undirected: true, Transport: t0}, programs...)
	e1 := core.New(core.Options{Ranks: 2, Undirected: true, Transport: t1}, programs...)
	streams := stream.Split(edges, 2)

	var wg sync.WaitGroup
	for _, e := range []*core.Engine{e0, e1} {
		wg.Add(1)
		go func(e *core.Engine) {
			defer wg.Done()
			if err := e.Start(streams); err != nil {
				t.Errorf("Start: %v", err)
			}
		}(e)
	}
	wg.Wait()

	// Node 0 decides termination and finishes; its TERMINATE never reaches
	// node 1. Node 1's watchdog must fire within its 200ms deadline (plus
	// scheduling slack). Node 0's Wait — which would tear the mesh down —
	// is deliberately deferred until after the dump is observed.
	var dump string
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if dump = e1.StallDump(); dump != "" {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if dump == "" {
		t.Fatal("stall watchdog never fired on node 1")
	}
	for _, want := range []string{
		"stall watchdog", "node 1 made no protocol progress",
		"suspect: peer node 0", "flight recorder",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("stall dump missing %q:\n%s", want, dump)
		}
	}
	if f := e1.EngineStats().Flight; f.WatchdogFires == 0 || f.LastStallUnixNanos == 0 {
		t.Errorf("flight stats did not record the fire: %+v", f)
	}

	// Metrics federation over the still-standing mesh: either node can
	// poll the other's EngineStats over the stats verb.
	cs := e1.ClusterStats(5 * time.Second)
	if len(cs) != 2 || cs[0].Node != 0 || cs[1].Node != 1 {
		t.Fatalf("ClusterStats returned %d snapshots: %+v", len(cs), cs)
	}
	if cs[0].Stats.Transport.Kind != "tcp" || cs[0].Stats.Ranks != 2 {
		t.Errorf("federated node-0 snapshot malformed: %+v", cs[0].Stats)
	}
	if cs[0].Stats.State != core.StateStopped {
		t.Errorf("node 0 should have finished (state %s)", cs[0].Stats.State)
	}

	// The run is never killed by the watchdog: a local Stop releases
	// node 1, and both engines shut down cleanly.
	if err := e1.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	e0.Wait()
	e1.Wait()
}

// TestTCPBootstrapTimeout: a follower that can never reach its
// coordinator surfaces a Start error instead of hanging.
func TestTCPBootstrapTimeout(t *testing.T) {
	tr, err := core.NewTCPTransport(core.TCPConfig{
		Node: 1, Nodes: 2, RanksPerNode: 1,
		Join:        "127.0.0.1:1", // reserved port, nothing listens
		DialTimeout: 300 * time.Millisecond,
		BootTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := core.New(core.Options{Ranks: 2, Transport: tr}, algo.BFS{})
	if err := e.Start(nil); err == nil {
		t.Fatal("Start succeeded with an unreachable coordinator")
	}
	if s := e.EngineStats().Transport; len(s.Peers) != 1 || s.Peers[0].Reconnects == 0 {
		t.Fatalf("expected recorded reconnect attempts, got %+v", s.Peers)
	}
}

// TestTCPTerminateNoEOFRace pins the termination ordering: a node's
// parting STATS and TERMINATE (or a follower's TERMINATE echo) must be
// queued before its own ranks may act on the decision. Otherwise a rank can
// finish first, teardown closes the frame queues, the pushes are dropped,
// and a peer reads a bare EOF mid-protocol. A fast serve-epoch ticker keeps
// the ranks waking and re-checking termination, which widens that window
// enough that the unfixed coordinator fails within a few runs; every member
// of all 50 runs, at 2 and at 3 members, must end without error.
func TestTCPTerminateNoEOFRace(t *testing.T) {
	edges := gen.ErdosRenyi(200, 800, 3, 1)
	programs := func() []core.Program { return []core.Program{algo.CC{}} }
	opts := core.Options{Undirected: true, Serve: true, ServeEvery: 20 * time.Microsecond}
	for _, members := range []int{2, 3} {
		for run := 0; run < 50; run++ {
			engines := nodeCluster(t, members, 2, opts, programs)
			var wg sync.WaitGroup
			for _, e := range engines {
				wg.Add(1)
				go func(e *core.Engine) {
					defer wg.Done()
					e.Run(stream.Split(edges, 2*members))
				}(e)
			}
			wg.Wait()
			for i, e := range engines {
				if err := e.Err(); err != nil {
					t.Fatalf("%d members, run %d: member %d: %v", members, run, i, err)
				}
			}
		}
	}
}
