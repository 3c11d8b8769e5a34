package core_test

import (
	"testing"

	"incregraph/internal/algo"
	"incregraph/internal/core"
	"incregraph/internal/csr"
	"incregraph/internal/gen"
	"incregraph/internal/graph"
	"incregraph/internal/static"
)

// stepAdd inserts the undirected edge src-dst on a one-rank engine and
// runs its whole cascade.
func stepAdd(e *core.Engine, src, dst graph.VertexID, w graph.Weight) {
	e.Step(0, core.Event{Kind: core.KindAdd, Algo: core.NoAlgo, To: src, From: dst, W: w})
}

// TestCallbackPathAllocFree pins the steady-state rank loop at zero heap
// allocations: on a pre-grown one-rank BFS+SSSP+CC engine, re-adding an
// existing edge (3 OnAdd + 3 OnReverseAdd callbacks) and delivering
// UPDATEs — non-improving, and one that makes SSSP notify the sender back
// — must not allocate. The callback context is rank-owned, so nothing
// escapes per callback.
func TestCallbackPathAllocFree(t *testing.T) {
	e := core.New(core.Options{Ranks: 1, Undirected: true}, algo.BFS{}, algo.SSSP{}, algo.CC{})
	edges := gen.ErdosRenyi(64, 256, 4, 1)
	for _, ed := range edges {
		stepAdd(e, ed.Src, ed.Dst, ed.W)
	}
	for a := 0; a < 2; a++ {
		e.Step(0, core.Event{Kind: core.KindInit, Algo: uint8(a), To: edges[0].Src})
	}
	ed := edges[1]
	vals := []map[graph.VertexID]uint64{e.CollectMap(0), e.CollectMap(1), e.CollectMap(2)}
	if vals[1][ed.Src] == core.Infinity {
		t.Fatalf("vertex %d unreached; pick a connected edge", ed.Src)
	}
	steps := []struct {
		name   string
		ev     core.Event
		events int // events the step must process (no vacuous pass)
	}{
		{"add", core.Event{Kind: core.KindAdd, Algo: core.NoAlgo, To: ed.Src, From: ed.Dst, W: ed.W}, 4},
		{"update-bfs", core.Event{Kind: core.KindUpdate, Algo: 0, To: ed.Dst, From: ed.Src, Val: vals[0][ed.Src], W: ed.W}, 1},
		{"update-cc", core.Event{Kind: core.KindUpdate, Algo: 2, To: ed.Dst, From: ed.Src, Val: vals[2][ed.Src], W: ed.W}, 1},
		// An offer of "no path" makes SSSP notify the sender back: one
		// emitted UPDATE, delivered through the self ring.
		{"update-notify-back", core.Event{Kind: core.KindUpdate, Algo: 1, To: ed.Dst, From: ed.Src, Val: core.Infinity, W: ed.W}, 2},
	}
	for _, s := range steps {
		if n := e.Step(0, s.ev); n != s.events {
			t.Fatalf("%s: processed %d events, want %d", s.name, n, s.events)
		}
		if allocs := testing.AllocsPerRun(200, func() { e.Step(0, s.ev) }); allocs != 0 {
			t.Errorf("%s: %.1f allocations per step, want 0", s.name, allocs)
		}
	}
}

// TestLiveEdgeGuardAfterRemoval: once a rank has removed an edge, an
// UPDATE carried over that deleted edge is still dropped, even when it is
// stamped with the receiver's current generation (so only the live-edge
// guard can reject it).
func TestLiveEdgeGuardAfterRemoval(t *testing.T) {
	e := core.New(core.Options{Ranks: 1, Undirected: true}, algo.BFS{})
	// 0-1-2 is the short path to 2; 0-3-4-2 the long one.
	for _, ed := range [][2]graph.VertexID{{0, 1}, {1, 2}, {0, 3}, {3, 4}, {4, 2}} {
		stepAdd(e, ed[0], ed[1], 1)
	}
	e.Step(0, core.Event{Kind: core.KindInit, Algo: 0, To: 0})
	if got := e.CollectMap(0)[2]; got != 3 {
		t.Fatalf("level(2) = %d before the delete, want 3", got)
	}
	e.Step(0, core.Event{Kind: core.KindDelete, Algo: core.NoAlgo, To: 1, From: 2, W: 1})
	if n := e.Removals(0); n != 2 {
		t.Fatalf("rank removed %d edges, want 2 (both halves)", n)
	}
	if got := e.CollectMap(0)[2]; got != 4 {
		t.Fatalf("level(2) = %d after the delete, want 4", got)
	}
	// Vertex 1 (level 2) offers level 3 over the deleted edge.
	e.Step(0, core.Event{Kind: core.KindUpdate, Algo: 0, To: 2, From: 1, Val: 2, W: 1, Gen: e.Gen(0, 2)})
	if got := e.CollectMap(0)[2]; got != 4 {
		t.Fatalf("level(2) = %d, want 4: an UPDATE over a deleted edge was accepted", got)
	}
}

// TestUpdateAheadOfReverseAddAccepted: on a rank that never removed an
// edge the live-edge probe is skipped, so an UPDATE its sender's OnAdd
// emitted ahead of the REVERSE_ADD that inserts the edge is accepted. The
// edge is real and arrives next; the engine converges to the static
// oracle, and deleting that edge later still invalidates the value it
// carried.
func TestUpdateAheadOfReverseAddAccepted(t *testing.T) {
	e := core.New(core.Options{Ranks: 1, Undirected: true}, algo.BFS{})
	stepAdd(e, 0, 1, 1)
	stepAdd(e, 2, 3, 1)
	e.Step(0, core.Event{Kind: core.KindInit, Algo: 0, To: 0})
	// Edge 1-2 is being inserted: 2 sees 1's value before the edge.
	e.Step(0, core.Event{Kind: core.KindUpdate, Algo: 0, To: 2, From: 1, Val: 2, W: 1})
	if n := e.Removals(0); n != 0 {
		t.Fatalf("rank removed %d edges, want 0", n)
	}
	if got := e.CollectMap(0)[2]; got != 3 {
		t.Fatalf("level(2) = %d, want 3: the early UPDATE was dropped", got)
	}
	stepAdd(e, 1, 2, 1)
	all := []graph.Edge{{Src: 0, Dst: 1, W: 1}, {Src: 2, Dst: 3, W: 1}, {Src: 1, Dst: 2, W: 1}}
	checkAgainst(t, "after reverse-add", e.Collect(0), static.BFS(csr.Build(all, true), 0), nil)

	e.Step(0, core.Event{Kind: core.KindDelete, Algo: core.NoAlgo, To: 1, From: 2, W: 1})
	checkAgainst(t, "after delete", e.Collect(0), static.BFS(csr.Build(all[:2], true), 0), nil)
}
