package core

import (
	"sync"
	"testing"

	"incregraph/internal/graph"
)

// combineStub is stubProg plus a min-Combine, for white-box coalescing
// tests.
type combineStub struct{ stubProg }

func (combineStub) Combine(old, new uint64) uint64 {
	if new < old {
		return new
	}
	return old
}

// vertexOwnedBy returns some vertex the partitioner assigns to rank want.
func vertexOwnedBy(e *Engine, want int) graph.VertexID {
	for v := graph.VertexID(0); ; v++ {
		if e.part.Owner(v) == want {
			return v
		}
	}
}

// TestCoalesceOutboundBuffer covers the combine/remember/barrier cycle on
// a cross-rank outbound buffer.
func TestCoalesceOutboundBuffer(t *testing.T) {
	e := New(Options{Ranks: 2}, combineStub{})
	r := e.ranks[0]
	v := vertexOwnedBy(e, 1)

	r.emit(Event{Kind: KindUpdate, Algo: 0, To: v, Val: 9})
	r.emit(Event{Kind: KindUpdate, Algo: 0, To: v, Val: 4})
	if n := len(r.out[1]); n != 1 {
		t.Fatalf("buffered %d events, want 1 (combined)", n)
	}
	if got := r.out[1][0].Val; got != 4 {
		t.Fatalf("combined value = %d, want 4", got)
	}
	if got := r.tally.combinedAway; got != 1 {
		t.Fatalf("combinedAway = %d, want 1", got)
	}
	// Registered = published ring count plus the rank's batched increments.
	if got := e.inflight[0].Load() + r.pendingInc[0]; got != 1 {
		t.Fatalf("inflight = %d, want 1 (merged event never registered)", got)
	}

	// A differing weight must not merge (the candidate value depends on it).
	r.emit(Event{Kind: KindUpdate, Algo: 0, To: v, Val: 3, W: 2})
	if n := len(r.out[1]); n != 2 {
		t.Fatalf("buffered %d events after weight change, want 2", n)
	}

	// Any non-UPDATE is an ordering barrier: later updates must not merge
	// backward across it.
	r.emit(Event{Kind: KindReverseAdd, Algo: 0, To: v})
	r.emit(Event{Kind: KindUpdate, Algo: 0, To: v, Val: 1})
	if n := len(r.out[1]); n != 4 {
		t.Fatalf("buffered %d events after barrier, want 4", n)
	}
	// ... but coalescing restarts after the barrier.
	r.emit(Event{Kind: KindUpdate, Algo: 0, To: v, Val: 7})
	if n := len(r.out[1]); n != 4 {
		t.Fatalf("buffered %d events, want 4 (post-barrier update combined)", n)
	}
	if got := r.out[1][3].Val; got != 1 {
		t.Fatalf("post-barrier combined value = %d, want 1", got)
	}
}

// TestCoalesceSelfRing covers coalescing into the self-delivery ring,
// including invalidation of already-consumed positions.
func TestCoalesceSelfRing(t *testing.T) {
	e := New(Options{Ranks: 1}, combineStub{})
	r := e.ranks[0]

	r.emit(Event{Kind: KindUpdate, Algo: 0, To: 5, Val: 8})
	r.emit(Event{Kind: KindUpdate, Algo: 0, To: 5, Val: 6})
	if n := len(r.self); n != 1 {
		t.Fatalf("self ring holds %d events, want 1 (combined)", n)
	}
	if got := r.self[0].Val; got != 6 {
		t.Fatalf("combined value = %d, want 6", got)
	}
	// Consume past the buffered position: a later same-key update must not
	// mutate an already-processed slot.
	r.selfHead = 1
	r.emit(Event{Kind: KindUpdate, Algo: 0, To: 5, Val: 2})
	if n := len(r.self); n != 2 {
		t.Fatalf("self ring holds %d events, want 2 (consumed slot not merged)", n)
	}
	if r.self[0].Val != 6 || r.self[1].Val != 2 {
		t.Fatalf("self ring = %+v", r.self)
	}
}

// TestLabelSeqRegression pins the one shared implementation of the
// increment-then-verify seq-labeling loop: the event must always be
// registered in the in-flight ring slot matching its label, even when the
// load races a snapshot-marker bump.
func TestLabelSeqRegression(t *testing.T) {
	e := New(Options{Ranks: 1}, stubProg{})
	var ev Event
	e.labelSeq(&ev)
	if ev.Seq != 0 || e.inflight[0].Load() != 1 {
		t.Fatalf("seq=%d inflight[0]=%d, want 0/1", ev.Seq, e.inflight[0].Load())
	}
	e.snapSeq.Store(3)
	e.labelSeq(&ev)
	if ev.Seq != 3 || e.inflight[3].Load() != 1 {
		t.Fatalf("seq=%d inflight[3]=%d, want 3/1", ev.Seq, e.inflight[3].Load())
	}

	// Concurrent marker bumps: whatever sequence each label observes, the
	// matching ring slot must account for it exactly.
	e2 := New(Options{Ranks: 1}, stubProg{})
	const events = 20000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for s := uint32(1); s <= 3; s++ {
			e2.snapSeq.Store(s)
		}
	}()
	var labeled [4]int64
	for i := 0; i < events; i++ {
		var ev Event
		e2.labelSeq(&ev)
		labeled[ev.Seq&3]++
	}
	wg.Wait()
	for s := range labeled {
		if got := e2.inflight[s].Load(); got != labeled[s] {
			t.Fatalf("slot %d: inflight %d, labeled %d", s, got, labeled[s])
		}
	}
}

// TestEmitExternalNoAllocs pins the external-injection fast path: pushing
// through the dedicated external lane must not allocate per event (the old
// path wrapped every event in a fresh one-event slice). Only the amortized
// lane-chunk allocation (one per laneChunkSize events) remains.
func TestEmitExternalNoAllocs(t *testing.T) {
	e := New(Options{Ranks: 2}, stubProg{})
	e.InitVertex(0, 7) // warm the lane
	allocs := testing.AllocsPerRun(2000, func() { e.InitVertex(0, 7) })
	if allocs > 0.1 {
		t.Fatalf("external injection allocates %.3f times per event", allocs)
	}
}

// TestGrowValuesLargeJump covers single-step state-array growth across a
// large slot jump, for both the live and the previous-version arrays.
func TestGrowValuesLargeJump(t *testing.T) {
	e := New(Options{Ranks: 1}, stubProg{}, stubProg{})
	r := e.ranks[0]
	r.growValues(3)
	r.values[0][3] = 42
	r.growValues(50000)
	for a := range r.values {
		if len(r.values[a]) != 50001 {
			t.Fatalf("values[%d] len = %d, want 50001", a, len(r.values[a]))
		}
	}
	if r.values[0][3] != 42 {
		t.Fatalf("grow lost existing state: %d", r.values[0][3])
	}
	if r.values[0][50000] != Unset || r.values[1][49999] != Unset {
		t.Fatal("grown region not Unset")
	}

	r.setPrevValue(1, 30000, 9)
	if len(r.prevValues[1]) != 30001 || r.prevValues[1][30000] != 9 {
		t.Fatalf("prevValues[1] len=%d [30000]=%d", len(r.prevValues[1]), r.prevValues[1][30000])
	}
	if r.prevValues[1][12345] != Unset {
		t.Fatal("prev grown region not Unset")
	}

	// The growth itself is one allocation per array, independent of the
	// jump size (the old implementation appended one element at a time).
	if allocs := testing.AllocsPerRun(50, func() { _ = grownTo(nil, 4095) }); allocs > 1 {
		t.Fatalf("grownTo(nil, 4095) allocates %.1f times, want 1", allocs)
	}
}
