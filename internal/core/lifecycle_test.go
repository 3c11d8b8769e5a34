package core_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"incregraph/internal/algo"
	"incregraph/internal/core"
	"incregraph/internal/csr"
	"incregraph/internal/gen"
	"incregraph/internal/graph"
	"incregraph/internal/static"
	"incregraph/internal/stream"
)

func sameValues(a, b []core.VertexValue) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLifecycleCheckpointRoundTripProperty is the PR's acceptance
// property: ingest part of a stream, Pause, WriteCheckpoint, load the
// checkpoint into a fresh engine, feed it exactly the remainder of the
// interrupted stream — the final Collect of every program must be
// byte-identical to an uninterrupted run over the same stream. The paused
// original must also Resume in place and converge to the same state.
func TestLifecycleCheckpointRoundTripProperty(t *testing.T) {
	edges := gen.Shuffle(gen.ErdosRenyi(300, 2400, 20, 77), 7)
	src := graph.VertexID(edges[0].Src)
	progs := func() []core.Program {
		return []core.Program{algo.BFS{}, algo.SSSP{}, algo.CC{}}
	}
	newEngine := func(ranks int) *core.Engine {
		e := core.New(core.Options{Ranks: ranks, Undirected: true}, progs()...)
		e.InitVertex(0, src)
		e.InitVertex(1, src)
		return e
	}
	for _, ranks := range []int{1, 3} {
		// Uninterrupted reference over the identical stream order.
		ref := newEngine(ranks)
		if _, err := ref.Run([]stream.Stream{stream.FromEdges(edges)}); err != nil {
			t.Fatal(err)
		}

		live := stream.NewChan()
		e := newEngine(ranks)
		if err := e.Start([]stream.Stream{live}); err != nil {
			t.Fatal(err)
		}
		for _, ed := range edges {
			live.PushEdge(ed)
		}
		// Pause races ingestion: the engine parks at an arbitrary event
		// boundary, the unconsumed suffix still buffered in the stream.
		time.Sleep(500 * time.Microsecond)
		if err := e.Pause(); err != nil {
			t.Fatalf("ranks=%d: Pause: %v", ranks, err)
		}
		if st := e.State(); st != core.StatePaused {
			t.Fatalf("ranks=%d: state after Pause = %v", ranks, st)
		}
		if !e.Quiescent() {
			t.Fatalf("ranks=%d: paused engine not quiescent", ranks)
		}
		var rem []graph.EdgeEvent
		for {
			ev, ok, _ := live.TryNext()
			if !ok {
				break
			}
			rem = append(rem, ev)
		}
		if got := e.Ingested() + uint64(len(rem)); got != uint64(len(edges)) {
			t.Fatalf("ranks=%d: ingested %d + remaining %d != pushed %d",
				ranks, e.Ingested(), len(rem), len(edges))
		}

		var buf bytes.Buffer
		if err := e.WriteCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}

		// Restart path: a fresh engine from the checkpoint, fed exactly
		// the remainder of the interrupted stream.
		e2, err := core.ReadCheckpoint(bytes.NewReader(buf.Bytes()), core.Options{}, progs()...)
		if err != nil {
			t.Fatal(err)
		}
		if meta := e2.CheckpointMeta(); !meta.Paused || meta.Ingested != e.Ingested() {
			t.Fatalf("ranks=%d: checkpoint meta = %+v, want Paused with Ingested=%d",
				ranks, meta, e.Ingested())
		}
		if _, err := e2.Run([]stream.Stream{stream.FromEvents(rem)}); err != nil {
			t.Fatal(err)
		}

		// Resume path: the paused original continues over the same events.
		for _, ev := range rem {
			live.Push(ev)
		}
		if err := e.Resume(); err != nil {
			t.Fatal(err)
		}
		live.Close()
		e.Wait()

		for a := range progs() {
			want := ref.Collect(a)
			if got := e2.Collect(a); !sameValues(got, want) {
				t.Fatalf("ranks=%d algo=%d: restored run diverged from uninterrupted run", ranks, a)
			}
			if got := e.Collect(a); !sameValues(got, want) {
				t.Fatalf("ranks=%d algo=%d: resumed run diverged from uninterrupted run", ranks, a)
			}
		}
	}
}

// TestLifecyclePausedInspection exercises everything that becomes legal at
// the pause barrier: Collect, Topology (with a static algorithm over it),
// queries served by parked ranks, snapshots finalized without resuming,
// and the deferral of external events until Resume.
func TestLifecyclePausedInspection(t *testing.T) {
	edges := gen.Path(80)
	live := stream.NewChan()
	e := core.New(core.Options{Ranks: 2, Undirected: true}, algo.BFS{}, algo.BFS{})
	e.InitVertex(0, 0)
	if err := e.Start([]stream.Stream{live}); err != nil {
		t.Fatal(err)
	}
	for _, ed := range edges {
		live.PushEdge(ed)
	}
	e.WaitDrained(func() uint64 { return uint64(len(edges)) })
	if err := e.Pause(); err != nil {
		t.Fatal(err)
	}

	want := static.BFS(csr.Build(edges, true), 0)
	checkAgainst(t, "paused-collect", e.Collect(0), want, nil)
	topo := e.Topology()
	if topo.NumVertices() != 80 {
		t.Fatalf("paused topology has %d vertices, want 80", topo.NumVertices())
	}
	if lv := static.BFS(topo, 0); lv[79] != want[79] {
		t.Fatalf("static BFS over paused topology: %d, want %d", lv[79], want[79])
	}
	if q := e.QueryLocal(0, 40); !q.Exists || q.Value != want[40] {
		t.Fatalf("query while paused = %+v, want %d", q, want[40])
	}
	if m := e.SnapshotAsync(0).AsMap(); m[79] != want[79] {
		t.Fatalf("snapshot while paused: vertex 79 = %d, want %d", m[79], want[79])
	}
	// External inits while paused are held back until Resume: the second
	// BFS instance still sees vertex 0 unreached (Infinity), not level 1.
	e.InitVertex(1, 0)
	if q := e.QueryLocal(1, 0); q.Value != core.Infinity {
		t.Fatalf("init applied during pause: %+v", q)
	}
	// ...then delivered: the second BFS instance converges after Resume.
	if err := e.Resume(); err != nil {
		t.Fatal(err)
	}
	e.WaitDrained(func() uint64 { return uint64(len(edges)) })
	// A second pause cycle makes the converged state collectible again.
	if err := e.Pause(); err != nil {
		t.Fatal(err)
	}
	checkAgainst(t, "resumed-deferred-init", e.Collect(1), want, nil)
	if err := e.Resume(); err != nil {
		t.Fatal(err)
	}
	live.Close()
	e.Wait()
}

// TestLifecycleWaitDrainedPrompt guards the busy-wait fix: draining an
// already-idle live run must return promptly (condition-check, not a spin
// loop), bounded here at far below the old polling regime's worst case.
func TestLifecycleWaitDrainedPrompt(t *testing.T) {
	edges := gen.Cycle(300)
	live := stream.NewChan()
	e := core.New(core.Options{Ranks: 2, Undirected: true}, algo.CC{})
	if err := e.Start([]stream.Stream{live}); err != nil {
		t.Fatal(err)
	}
	for _, ed := range edges {
		live.PushEdge(ed)
	}
	pushed := func() uint64 { return live.Pushed() }
	e.WaitDrained(pushed)
	if e.Ingested() != uint64(len(edges)) || !e.Quiescent() {
		t.Fatalf("WaitDrained returned early: ingested %d/%d quiescent=%v",
			e.Ingested(), len(edges), e.Quiescent())
	}
	start := time.Now()
	for i := 0; i < 100; i++ {
		e.WaitDrained(pushed)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("100 idle WaitDrained calls took %v", d)
	}
	live.Close()
	e.Wait()
}

// TestLifecycleStopAndIdempotence walks the full state machine on a live
// run: double-Pause and double-Resume are no-ops, Stop drains to a
// quiescent terminal state with every rank goroutine released, a second
// Stop is an idempotent wait, and Pause/Resume after Stop report
// ErrStopped.
func TestLifecycleStopAndIdempotence(t *testing.T) {
	live := stream.NewChan()
	e := core.New(core.Options{Ranks: 3, Undirected: true}, algo.CC{})
	if e.State() != core.StateIdle {
		t.Fatalf("fresh engine state = %v", e.State())
	}
	if err := e.Start([]stream.Stream{live}); err != nil {
		t.Fatal(err)
	}
	if e.State() != core.StateRunning {
		t.Fatalf("started engine state = %v", e.State())
	}
	for _, ed := range gen.PreferentialAttachment(800, 4, 10, 5) {
		live.PushEdge(ed)
	}
	if err := e.Pause(); err != nil {
		t.Fatal(err)
	}
	if err := e.Pause(); err != nil {
		t.Fatalf("second Pause: %v", err)
	}
	if err := e.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := e.Resume(); err != nil {
		t.Fatalf("second Resume: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if e.State() != core.StateStopped {
		t.Fatalf("stopped engine state = %v", e.State())
	}
	if !e.Quiescent() {
		t.Fatal("Stop left in-flight events")
	}
	e.Wait()         // returns immediately: every rank goroutine released
	_ = e.Collect(0) // post-stop reads observe the quiescent final state
	if err := e.Stop(ctx); err != nil {
		t.Fatalf("double Stop: %v", err)
	}
	if err := e.Pause(); err != core.ErrStopped {
		t.Fatalf("Pause after Stop = %v, want ErrStopped", err)
	}
	if err := e.Resume(); err != core.ErrStopped {
		t.Fatalf("Resume after Stop = %v, want ErrStopped", err)
	}
}

// TestLifecycleStopFromPause releases parked ranks straight into
// termination, discarding events deferred during the pause.
func TestLifecycleStopFromPause(t *testing.T) {
	live := stream.NewChan()
	e := core.New(core.Options{Ranks: 2, Undirected: true}, algo.BFS{})
	e.InitVertex(0, 0)
	if err := e.Start([]stream.Stream{live}); err != nil {
		t.Fatal(err)
	}
	for _, ed := range gen.Path(50) {
		live.PushEdge(ed)
	}
	e.WaitDrained(func() uint64 { return 49 })
	if err := e.Pause(); err != nil {
		t.Fatal(err)
	}
	e.InitVertex(0, 10) // deferred, then discarded by Stop
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	stats := e.Wait()
	if stats.Vertices != 50 {
		t.Fatalf("stats after stop-from-pause: %+v", stats)
	}
	if q := e.QueryLocal(0, 10); q.Value != 11 {
		t.Fatalf("vertex 10 = %+v, want pre-pause level 11", q)
	}
}

// TestLifecycleStopBeforeStart marks a never-started engine terminal.
func TestLifecycleStopBeforeStart(t *testing.T) {
	e := core.New(core.Options{Ranks: 1, Undirected: true}, algo.BFS{})
	if err := e.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	if e.State() != core.StateStopped {
		t.Fatalf("state = %v", e.State())
	}
	e.Wait() // does not block
	if err := e.Start(nil); err == nil {
		t.Fatal("Start after Stop must fail")
	}
	if err := e.Pause(); err != core.ErrStopped {
		t.Fatalf("Pause after Stop = %v, want ErrStopped", err)
	}
}

// TestLifecycleBeforeStartErrors: Pause/Resume are meaningless on an
// engine that never started.
func TestLifecycleBeforeStartErrors(t *testing.T) {
	e := core.New(core.Options{Ranks: 1, Undirected: true}, algo.BFS{})
	if err := e.Pause(); err == nil {
		t.Fatal("Pause before Start must fail")
	}
	if err := e.Resume(); err == nil {
		t.Fatal("Resume before Start must fail")
	}
	if e.State() != core.StateIdle {
		t.Fatalf("state = %v", e.State())
	}
}

// TestLifecyclePauseRacesStreamPull: Pause issued while a rank is pulling
// from its live stream must always complete. A rank used to read the halt
// flags before registering the pulled event, so a pull could slip in after
// its peer had parked on a quiescent ring; the cascade then waited forever
// on the parked peer (TestLifecycleConcurrentTransitions hung that way in
// a fraction of runs).
func TestLifecyclePauseRacesStreamPull(t *testing.T) {
	for i := 0; i < 200; i++ {
		live := stream.NewChan()
		e := core.New(core.Options{Ranks: 2, Undirected: true}, algo.CC{})
		if err := e.Start([]stream.Stream{live}); err != nil {
			t.Fatal(err)
		}
		for _, ed := range gen.Star(200) {
			live.PushEdge(ed)
		}
		paused := make(chan error, 1)
		go func() { paused <- e.Pause() }()
		select {
		case err := <-paused:
			if err != nil {
				t.Fatalf("run %d: Pause: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("run %d: Pause did not return (in flight %d)", i, e.EngineStats().InFlight)
		}
		if !e.Quiescent() {
			t.Fatalf("run %d: paused engine is not quiescent", i)
		}
		if err := e.Stop(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}
