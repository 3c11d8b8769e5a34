package graph

import (
	"cmp"
	"slices"
)

// Hybrid CSR-delta storage tier (the RisGraph/DegAwareRHH idea): each
// vertex's cold edge bulk lives in an immutable, Nbr-sorted segment —
// a per-vertex CSR row — while recent arrivals accumulate in the existing
// small-slice/Robin-Hood delta. Compaction merges the delta into a fresh
// segment; it never pauses ingestion because the owning rank runs it as a
// chore between events, on its own shard only (shared-nothing, zero
// locking).
//
// Segment immutability is the load-bearing contract: once a segment array
// has escaped by reference (Segment()), the store never writes to it again
// — weight merges and deletes clone it (see AddEdge/DeleteEdge and the
// segShared bitmap) — and every compacted segment is allocated with
// len == cap, so an append through an aliased slice header must
// reallocate. That is exactly what lets a compacted segment be handed to
// the serve plane by reference (serve.Publisher.SegmentCompacted) instead
// of re-copied, and why concurrent readers of published segments are safe
// under the race detector. Segments that never escaped are private and
// merge weight/seq updates in place (duplicate-heavy streams would
// otherwise clone O(degree) per duplicate on hub vertices).

// DefaultCompactCap is the default delta size that queues a vertex for
// compaction. It matches DefaultSmallCap so that, in steady state, a
// vertex's delta is compacted around the point it would otherwise promote
// to the hash-table representation — scans stay in flat arrays.
const DefaultCompactCap = 16

// EnableHybrid switches the store into hybrid CSR-delta mode. Call before
// any edges are inserted. compactCap <= 0 selects DefaultCompactCap.
func (s *Store) EnableHybrid(compactCap int) {
	s.hybrid = true
	s.SetCompactCap(compactCap)
}

// HybridEnabled reports whether the store runs the hybrid tier.
func (s *Store) HybridEnabled() bool { return s.hybrid }

// SetCompactCap adjusts the compaction threshold (n <= 0 selects the
// default). Owner-goroutine only, like every store mutation; the auto-tune
// controller uses it to trade compaction churn against scan locality.
func (s *Store) SetCompactCap(n int) {
	if n <= 0 {
		n = DefaultCompactCap
	}
	s.compactCap = n
}

// CompactCap returns the current compaction threshold.
func (s *Store) CompactCap() int { return s.compactCap }

// maybeQueueCompact enqueues slot for compaction when its delta is both
// over the absolute threshold and at least a quarter of the segment —
// the geometric condition bounds total compaction copy work at O(degree)
// amortized constant per edge, like vector doubling.
func (s *Store) maybeQueueCompact(slot Slot, a *adjacency) {
	if !s.hybrid {
		return
	}
	if dn := a.deltaLen(); dn >= s.compactCap && dn*4 >= len(a.seg) {
		s.queueCompact(slot)
	}
}

// queueCompact appends slot to the FIFO compaction queue unless it is
// already pending (bitmap-deduplicated).
func (s *Store) queueCompact(slot Slot) {
	w := int(slot) >> 6
	bit := uint64(1) << (uint(slot) & 63)
	for len(s.pendingBit) <= w {
		s.pendingBit = append(s.pendingBit, 0)
	}
	if s.pendingBit[w]&bit != 0 {
		return
	}
	s.pendingBit[w] |= bit
	s.pending = append(s.pending, slot)
}

// PendingCompactions counts slots queued for compaction.
func (s *Store) PendingCompactions() int { return len(s.pending) - s.pendHead }

// PeekCompact returns the slot CompactNext would pop, without popping.
func (s *Store) PeekCompact() (Slot, bool) {
	if s.pendHead >= len(s.pending) {
		return NoSlot, false
	}
	return s.pending[s.pendHead], true
}

// CompactNext pops the oldest queued slot and compacts it. compacted is
// false when the slot's delta emptied between queueing and now (deletes
// can do that); ok is false when the queue is empty.
func (s *Store) CompactNext() (slot Slot, compacted, ok bool) {
	if s.pendHead >= len(s.pending) {
		return NoSlot, false, false
	}
	slot = s.pending[s.pendHead]
	s.pendHead++
	if s.pendHead == len(s.pending) {
		s.pending = s.pending[:0]
		s.pendHead = 0
	}
	s.pendingBit[int(slot)>>6] &^= uint64(1) << (uint(slot) & 63)
	return slot, s.CompactSlot(slot), true
}

// CompactSlot merges the vertex's delta into its immutable segment,
// reporting whether any entries moved. The merged array is freshly
// allocated with len == cap (see the aliasing contract above); the old
// segment array is left untouched for any published reference. Weights and
// Seq tags carry over bit-exact, so NeighborsBefore and the weight-policy
// invariants are tier-independent — only iteration order changes, which
// REMO commutativity makes irrelevant (DESIGN.md "Hybrid storage tier").
func (s *Store) CompactSlot(slot Slot) bool {
	a := &s.adj[slot]
	dn := a.deltaLen()
	if dn == 0 {
		return false
	}
	delta := make([]HalfEdge, 0, dn)
	if a.large != nil {
		a.large.Range(func(k uint64, p uint64) bool {
			w, q := unpackWS(p)
			delta = append(delta, HalfEdge{Nbr: VertexID(k), W: w, Seq: q})
			return true
		})
	} else {
		delta = append(delta, a.small...)
	}
	slices.SortFunc(delta, func(x, y HalfEdge) int { return cmp.Compare(x.Nbr, y.Nbr) })
	merged := make([]HalfEdge, 0, len(a.seg)+len(delta))
	i, j := 0, 0
	for i < len(a.seg) && j < len(delta) {
		// The tiers are disjoint by construction (AddEdge checks the
		// segment first), so equal keys cannot occur; if the invariant ever
		// broke, the duplicate entry would surface in the differential
		// tests as a degree mismatch rather than being silently merged.
		if a.seg[i].Nbr < delta[j].Nbr {
			merged = append(merged, a.seg[i])
			i++
		} else {
			merged = append(merged, delta[j])
			j++
		}
	}
	merged = append(merged, a.seg[i:]...)
	merged = append(merged, delta[j:]...)
	a.seg = merged
	a.small = nil
	a.large = nil
	s.clearSegShared(slot) // fresh array: no outstanding references
	s.compactions.Add(1)
	s.segEdges.Add(uint64(dn))
	return true
}

// CompactAll compacts every vertex's delta and clears the queue (tests and
// offline consolidation; the engine compacts incrementally via
// CompactNext).
func (s *Store) CompactAll() {
	for slot := range s.adj {
		s.CompactSlot(Slot(slot))
	}
	s.pending = s.pending[:0]
	s.pendHead = 0
	for i := range s.pendingBit {
		s.pendingBit[i] = 0
	}
}

// segSharedBit reports whether the slot's segment array has escaped by
// reference. Owner-goroutine only, like the rest of the queue state.
func (s *Store) segSharedBit(slot Slot) bool {
	w := int(slot) >> 6
	return w < len(s.segShared) && s.segShared[w]&(uint64(1)<<(uint(slot)&63)) != 0
}

func (s *Store) markSegShared(slot Slot) {
	w := int(slot) >> 6
	for len(s.segShared) <= w {
		s.segShared = append(s.segShared, 0)
	}
	s.segShared[w] |= uint64(1) << (uint(slot) & 63)
}

func (s *Store) clearSegShared(slot Slot) {
	if w := int(slot) >> 6; w < len(s.segShared) {
		s.segShared[w] &^= uint64(1) << (uint(slot) & 63)
	}
}

// Segment exposes the vertex's immutable compacted segment (nil if never
// compacted). Callers must treat it as read-only. Taking a reference marks
// the slot shared: from then on any store-side change to the segment
// clones the array first instead of mutating in place, which is what makes
// handing it to the serve plane by reference sound.
func (s *Store) Segment(slot Slot) []HalfEdge {
	seg := s.adj[slot].seg
	if seg != nil {
		s.markSegShared(slot)
	}
	return seg
}

// AdjEntries returns every half-edge of the vertex at slot — segment then
// delta — as full (Nbr, W, Seq) triples. Diagnostic accessor for tests and
// the sim driver's compaction-equivalence check; allocates per call.
func (s *Store) AdjEntries(slot Slot) []HalfEdge {
	a := &s.adj[slot]
	out := make([]HalfEdge, 0, a.degree())
	out = append(out, a.seg...)
	if a.large != nil {
		a.large.Range(func(k uint64, p uint64) bool {
			w, q := unpackWS(p)
			out = append(out, HalfEdge{Nbr: VertexID(k), W: w, Seq: q})
			return true
		})
	} else {
		out = append(out, a.small...)
	}
	return out
}

// HybridStats is a point-in-time snapshot of the hybrid tier's counters
// (all zero when the store is not hybrid, except DeltaScanned which still
// tallies pure-dynamic scan traffic).
type HybridStats struct {
	// Compactions counts completed delta->segment merges.
	Compactions uint64
	// SegmentEdges is the number of edges currently resident in compacted
	// segments (a gauge: compactions add, segment deletes subtract).
	SegmentEdges uint64
	// SegClones counts copy-on-write segment clones (weight merges and
	// deletes hitting segment-resident edges).
	SegClones uint64
	// SegScanned / DeltaScanned count adjacency entries iterated per tier
	// during Neighbors/NeighborsBefore walks. DeltaScanned/(Seg+Delta) is
	// the delta hit rate: the fraction of scan traffic still served by the
	// mutable tier (lower = better locality).
	SegScanned   uint64
	DeltaScanned uint64
}

// Hybrid reads the hybrid tier's counters; safe from any goroutine.
func (s *Store) Hybrid() HybridStats {
	return HybridStats{
		Compactions:  s.compactions.Load(),
		SegmentEdges: s.segEdges.Load(),
		SegClones:    s.segClones.Load(),
		SegScanned:   s.segScans.Load(),
		DeltaScanned: s.deltaScans.Load(),
	}
}

// DeltaHitRate is DeltaScanned over total scanned entries (0 when nothing
// was scanned).
func (h HybridStats) DeltaHitRate() float64 {
	total := h.SegScanned + h.DeltaScanned
	if total == 0 {
		return 0
	}
	return float64(h.DeltaScanned) / float64(total)
}
