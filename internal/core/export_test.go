package core

import "incregraph/internal/graph"

// Test-only exports: fault-injection hooks the external test package
// (core_test) needs to drive the transport into failure modes, and
// single-step access to a rank's dispatch for hot-path tests.

// SetDropFrames installs (or, with nil, removes) the outbound
// fault-injection hook: fn is consulted with the destination node and the
// frame type's name for every frame about to be written, and returning
// true silently drops it. Dropped frames are never counted as sent.
func (t *TCPTransport) SetDropFrames(fn func(peerNode int, frame string) bool) {
	if fn == nil {
		t.dropFrame.Store((func(int, frameType) bool)(nil))
		return
	}
	t.dropFrame.Store(func(peer int, ft frameType) bool { return fn(peer, ft.String()) })
}

// Step runs ev through rank i's dispatch and then drains rank i's
// self-delivery ring — the event plus the local part of its cascade, as
// the rank loop would process them — on an engine that was never started.
// On a one-rank engine that is the whole cascade. It returns the number of
// events processed. The per-event tallies are published; in-flight counters
// are not settled: nothing waits on them before Start.
func (e *Engine) Step(i int, ev Event) int {
	r := e.ranks[i]
	before := r.counters.totalEvents()
	r.process(&ev)
	r.drainSelf()
	r.publishTally()
	r.pendingInc, r.pendingDec = [4]int64{}, [4]int64{}
	return int(r.counters.totalEvents() - before)
}

// Removals reports how many edges rank i's store has removed.
func (e *Engine) Removals(i int) uint64 { return e.ranks[i].removals }

// Gen reports the witness generation of vertex v for program algo (0 for a
// vertex its owner does not store).
func (e *Engine) Gen(algo int, v graph.VertexID) uint32 {
	r := e.ranks[e.part.Owner(v)]
	slot, ok := r.store.SlotOf(v)
	if !ok {
		return 0
	}
	return r.genOf(uint8(algo), slot)
}
