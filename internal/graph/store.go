package graph

import (
	"sync/atomic"

	"incregraph/internal/rhh"
)

// DefaultSmallCap is the degree threshold at which a vertex's adjacency is
// promoted from the compact inline slice to a Robin Hood hash table.
// Low-degree vertices (the vast majority under power-law distributions)
// stay in the compact form; high-degree vertices get O(1) duplicate checks
// and weight lookups from the hash table.
const DefaultSmallCap = 16

// packed adjacency value for the large (hash table) representation:
// weight in the low 32 bits, insertion sequence number in the high 32.
func packWS(w Weight, seq uint32) uint64 { return uint64(seq)<<32 | uint64(w) }
func unpackWS(p uint64) (Weight, uint32) { return Weight(p & 0xffffffff), uint32(p >> 32) }

// adjacency is a degree-aware edge set for a single vertex. In hybrid mode
// (see hybrid.go) the bulk of the edges live in seg — an immutable,
// Nbr-sorted array compacted from the mutable tier — and small/large hold
// only the delta that arrived since the last compaction. An edge lives in
// exactly one tier: AddEdge checks seg first, so a segment-resident
// neighbour is never re-inserted into the delta.
type adjacency struct {
	seg   []HalfEdge       // immutable compacted segment, sorted by Nbr; nil until compacted
	small []HalfEdge       // delta: used while delta degree < smallCap
	large *rhh.Map[uint64] // delta: nbr -> packed (weight, seq); nil until promoted
}

func (a *adjacency) degree() int { return len(a.seg) + a.deltaLen() }

// deltaLen is the mutable-tier entry count (the whole adjacency when the
// store is not hybrid or the vertex was never compacted).
func (a *adjacency) deltaLen() int {
	if a.large != nil {
		return a.large.Len()
	}
	return len(a.small)
}

// segFind returns the index of nbr in the Nbr-sorted segment, or -1.
func segFind(seg []HalfEdge, nbr VertexID) int {
	lo, hi := 0, len(seg)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if seg[mid].Nbr < nbr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(seg) && seg[lo].Nbr == nbr {
		return lo
	}
	return -1
}

// WeightPolicy decides how a re-inserted edge's weight merges with the
// stored one. REMO monotonicity constrains which attribute updates an
// algorithm can absorb (§II-B): SSSP tolerates only weight *decreases*
// (paths only get cheaper), widest-path only weight *increases* (paths
// only get wider). The policy is a property of the store because all
// programs hooked on one engine share one topology.
type WeightPolicy uint8

const (
	// WeightMin keeps the minimum weight seen (default; matches the
	// paper's SSSP "edge updates limited only to reducing edge weight").
	WeightMin WeightPolicy = iota
	// WeightMax keeps the maximum weight seen (monotone for widest-path).
	WeightMax
	// WeightFirst ignores re-inserted weights entirely.
	WeightFirst
)

// Store is one rank's shard of the dynamic graph: a vertex table mapping
// sparse VertexIDs to dense slots, plus per-slot degree-aware adjacency.
// It is not safe for concurrent use; each engine rank owns its Store
// exclusively (shared-nothing).
type Store struct {
	index    rhh.Map[Slot] // VertexID -> slot
	ids      []VertexID    // slot -> VertexID
	adj      []adjacency   // slot -> adjacency
	edges    uint64        // directed half-edge count stored in this shard
	smallCap int
	policy   WeightPolicy

	promotions uint64 // number of small->large promotions (instrumentation)

	// Hybrid CSR-delta tier state (hybrid.go). pending/pendingBit form the
	// compaction queue: slots whose delta crossed the threshold, FIFO with a
	// bitmap de-duplicating entries; pendHead is the next queue index.
	hybrid     bool
	compactCap int
	pending    []Slot
	pendHead   int
	pendingBit []uint64

	// segShared marks slots whose segment array has been handed out by
	// reference (Segment()); only those need copy-on-write on a weight or
	// seq merge — private segments mutate in place, which matters under
	// duplicate-heavy streams (R-MAT hubs) where a clone is O(degree).
	// Deletes always clone: removal changes the array length, and the
	// serve-plane aliasing contract requires len == cap at handoff.
	segShared []uint64

	// Hybrid instrumentation. The store is single-writer (rank-owned), but
	// stats aggregation reads from arbitrary goroutines, so these are
	// atomics — each costs one uncontended add, and the scan tallies are
	// accumulated locally and added once per Neighbors call.
	compactions atomic.Uint64 // completed delta->segment merges
	segEdges    atomic.Uint64 // edges currently resident in segments (gauge)
	segClones   atomic.Uint64 // copy-on-write segment clones (merge/delete)
	segScans    atomic.Uint64 // adjacency entries iterated from segments
	deltaScans  atomic.Uint64 // adjacency entries iterated from the delta tier
}

// NewStore returns an empty shard with the WeightMin policy.
// smallCap <= 0 selects DefaultSmallCap.
func NewStore(smallCap int) *Store {
	if smallCap <= 0 {
		smallCap = DefaultSmallCap
	}
	return &Store{smallCap: smallCap}
}

// SetWeightPolicy selects the duplicate-weight merge rule. Call before any
// edges are inserted.
func (s *Store) SetWeightPolicy(p WeightPolicy) { s.policy = p }

// mergeWeight applies the policy to an existing weight given a re-inserted
// one, returning the weight to keep.
func (s *Store) mergeWeight(old, new Weight) Weight {
	switch s.policy {
	case WeightMax:
		if new > old {
			return new
		}
	case WeightFirst:
	default: // WeightMin
		if new < old {
			return new
		}
	}
	return old
}

// NumVertices returns the number of vertices present in this shard.
func (s *Store) NumVertices() int { return len(s.ids) }

// NumEdges returns the number of directed adjacency entries in this shard.
func (s *Store) NumEdges() uint64 { return s.edges }

// Promotions returns how many vertices have been promoted to the hash-table
// representation.
func (s *Store) Promotions() uint64 { return s.promotions }

// SlotOf returns the dense slot for v, or (NoSlot, false) if absent.
func (s *Store) SlotOf(v VertexID) (Slot, bool) {
	slot, ok := s.index.Get(uint64(v))
	if !ok {
		return NoSlot, false
	}
	return slot, true
}

// IDOf returns the VertexID stored at slot.
func (s *Store) IDOf(slot Slot) VertexID { return s.ids[slot] }

// IDs exposes the slot -> VertexID slice itself. The slice is append-only
// — slot i's id is written once and never reassigned — which is exactly
// the contract the MVCC read plane (internal/serve) relies on to share it
// across published segments without copying: a reader bounded by an older
// length never observes an index being written, and a growth reallocation
// leaves the old array intact. Callers must not mutate it.
func (s *Store) IDs() []VertexID { return s.ids }

// EnsureVertex returns the slot for v, creating the vertex if needed.
// The second result reports whether the vertex was newly created.
func (s *Store) EnsureVertex(v VertexID) (Slot, bool) {
	slot := Slot(len(s.ids))
	p, existed := s.index.GetOrPut(uint64(v), slot)
	if existed {
		return *p, false
	}
	s.ids = append(s.ids, v)
	s.adj = append(s.adj, adjacency{})
	return slot, true
}

// AddEdge inserts the directed edge src->dst with weight w, tagging it with
// the snapshot sequence seq. The source vertex is created if absent; the
// destination is NOT — in the distributed model the destination vertex
// lives in its owner's shard, and appears here only as a neighbour ID
// inside src's adjacency. If the edge already exists its weight merges per
// the store's WeightPolicy (default: keep the minimum — the paper's SSSP
// "edge updates limited only to reducing edge weight", §II-B) and the
// stored Seq is lowered to the smaller of the two: a parallel edge ingested
// before a snapshot marker belongs to the previous version even when a
// post-marker duplicate raced ahead of it, and previous-version propagation
// (NeighborsBefore) must be able to traverse it.
// Returns the source slot, whether the source vertex was created, and
// whether the adjacency entry is new.
func (s *Store) AddEdge(src, dst VertexID, w Weight, seq uint32) (srcSlot Slot, srcCreated, isNew bool) {
	srcSlot, srcCreated = s.EnsureVertex(src)
	a := &s.adj[srcSlot]
	if i := segFind(a.seg, dst); i >= 0 {
		// Segment-resident duplicate: merge the weight under the policy and
		// lower the stored seq. If the segment array has been handed out by
		// reference (serve-plane handoff) the change clones first; a private
		// segment mutates in place.
		merged := s.mergeWeight(a.seg[i].W, w)
		mseq := a.seg[i].Seq
		if seq < mseq {
			mseq = seq
		}
		if merged != a.seg[i].W || mseq != a.seg[i].Seq {
			if s.segSharedBit(srcSlot) {
				seg := make([]HalfEdge, len(a.seg))
				copy(seg, a.seg)
				a.seg = seg
				s.segClones.Add(1)
				s.clearSegShared(srcSlot)
			}
			a.seg[i].W = merged
			a.seg[i].Seq = mseq
		}
		return srcSlot, srcCreated, false
	}
	if a.large != nil {
		p, existed := a.large.GetOrPut(uint64(dst), packWS(w, seq))
		if existed {
			ew, eseq := unpackWS(*p)
			merged := s.mergeWeight(ew, w)
			if seq < eseq {
				eseq = seq
			}
			*p = packWS(merged, eseq)
			return srcSlot, srcCreated, false
		}
		s.edges++
		s.maybeQueueCompact(srcSlot, a)
		return srcSlot, srcCreated, true
	}
	for i := range a.small {
		if a.small[i].Nbr == dst {
			a.small[i].W = s.mergeWeight(a.small[i].W, w)
			if seq < a.small[i].Seq {
				a.small[i].Seq = seq
			}
			return srcSlot, srcCreated, false
		}
	}
	if len(a.small) >= s.smallCap {
		// Promote the delta to the Robin Hood representation.
		m := &rhh.Map[uint64]{}
		m.Reserve(len(a.small) * 2)
		for _, he := range a.small {
			m.Put(uint64(he.Nbr), packWS(he.W, he.Seq))
		}
		m.Put(uint64(dst), packWS(w, seq))
		a.small = nil
		a.large = m
		s.promotions++
		s.edges++
		s.maybeQueueCompact(srcSlot, a)
		return srcSlot, srcCreated, true
	}
	a.small = append(a.small, HalfEdge{Nbr: dst, W: w, Seq: seq})
	s.edges++
	s.maybeQueueCompact(srcSlot, a)
	return srcSlot, srcCreated, true
}

// DeleteEdge removes the directed edge src->dst, reporting whether it was
// present. Vertices are never removed (vertex deletion is a set of edge
// deletions in the paper's model).
func (s *Store) DeleteEdge(src, dst VertexID) bool {
	srcSlot, ok := s.SlotOf(src)
	if !ok {
		return false
	}
	a := &s.adj[srcSlot]
	if i := segFind(a.seg, dst); i >= 0 {
		// Copy-on-write removal: published references keep the old array.
		// Always cloned, shared or not — removal changes the length, and
		// the next handoff needs a fresh len == cap array anyway.
		if len(a.seg) == 1 {
			a.seg = nil
		} else {
			seg := make([]HalfEdge, 0, len(a.seg)-1)
			seg = append(seg, a.seg[:i]...)
			seg = append(seg, a.seg[i+1:]...)
			a.seg = seg
		}
		s.segClones.Add(1)
		s.segEdges.Add(^uint64(0))
		s.clearSegShared(srcSlot)
		s.edges--
		return true
	}
	if a.large != nil {
		if a.large.Delete(uint64(dst)) {
			s.edges--
			return true
		}
		return false
	}
	for i := range a.small {
		if a.small[i].Nbr == dst {
			last := len(a.small) - 1
			a.small[i] = a.small[last]
			a.small = a.small[:last]
			s.edges--
			return true
		}
	}
	return false
}

// Degree returns the out-degree of the vertex at slot.
func (s *Store) Degree(slot Slot) int { return s.adj[slot].degree() }

// HasEdge reports whether the directed edge src->dst exists.
func (s *Store) HasEdge(src, dst VertexID) bool {
	slot, ok := s.SlotOf(src)
	if !ok {
		return false
	}
	_, ok = s.EdgeWeight(slot, dst)
	return ok
}

// EdgeWeight returns the weight of the edge from the vertex at slot to nbr.
func (s *Store) EdgeWeight(slot Slot, nbr VertexID) (Weight, bool) {
	a := &s.adj[slot]
	if i := segFind(a.seg, nbr); i >= 0 {
		return a.seg[i].W, true
	}
	if a.large != nil {
		p, ok := a.large.Get(uint64(nbr))
		if !ok {
			return 0, false
		}
		w, _ := unpackWS(p)
		return w, true
	}
	for i := range a.small {
		if a.small[i].Nbr == nbr {
			return a.small[i].W, true
		}
	}
	return 0, false
}

// Neighbors calls fn for every out-neighbour of the vertex at slot: the
// dense compacted segment first (sequential, prefetch-friendly), then the
// delta tier. Iteration stops early if fn returns false. fn must not mutate
// the store. The per-tier scan tallies behind the delta-hit-rate gauge are
// accumulated locally and added once per call.
func (s *Store) Neighbors(slot Slot, fn func(nbr VertexID, w Weight) bool) {
	a := &s.adj[slot]
	for i := range a.seg {
		if !fn(a.seg[i].Nbr, a.seg[i].W) {
			s.segScans.Add(uint64(i + 1))
			return
		}
	}
	if len(a.seg) > 0 {
		s.segScans.Add(uint64(len(a.seg)))
	}
	if a.large != nil {
		n := 0
		a.large.Range(func(k uint64, p uint64) bool {
			n++
			w, _ := unpackWS(p)
			return fn(VertexID(k), w)
		})
		s.deltaScans.Add(uint64(n))
		return
	}
	for i := range a.small {
		if !fn(a.small[i].Nbr, a.small[i].W) {
			s.deltaScans.Add(uint64(i + 1))
			return
		}
	}
	if len(a.small) > 0 {
		s.deltaScans.Add(uint64(len(a.small)))
	}
}

// NeighborsBefore is Neighbors restricted to edges inserted before snapshot
// sequence seq. Previous-version snapshot propagation uses it so that state
// belonging to a snapshot never traverses edges added after the marker.
// Compaction preserves each half-edge's Seq exactly, so the filter is
// tier-independent.
func (s *Store) NeighborsBefore(slot Slot, seq uint32, fn func(nbr VertexID, w Weight) bool) {
	a := &s.adj[slot]
	for i := range a.seg {
		if a.seg[i].Seq >= seq {
			continue
		}
		if !fn(a.seg[i].Nbr, a.seg[i].W) {
			s.segScans.Add(uint64(i + 1))
			return
		}
	}
	if len(a.seg) > 0 {
		s.segScans.Add(uint64(len(a.seg)))
	}
	if a.large != nil {
		n := 0
		a.large.Range(func(k uint64, p uint64) bool {
			n++
			w, eseq := unpackWS(p)
			if eseq >= seq {
				return true
			}
			return fn(VertexID(k), w)
		})
		s.deltaScans.Add(uint64(n))
		return
	}
	for i := range a.small {
		if a.small[i].Seq >= seq {
			continue
		}
		if !fn(a.small[i].Nbr, a.small[i].W) {
			s.deltaScans.Add(uint64(i + 1))
			return
		}
	}
	if len(a.small) > 0 {
		s.deltaScans.Add(uint64(len(a.small)))
	}
}

// ForEachVertex calls fn for every vertex in the shard in slot order.
// Iteration stops early if fn returns false.
func (s *Store) ForEachVertex(fn func(slot Slot, id VertexID) bool) {
	for i, id := range s.ids {
		if !fn(Slot(i), id) {
			return
		}
	}
}

// Stats summarizes the degree-aware layout of a shard.
type Stats struct {
	Vertices   int
	Edges      uint64
	Promoted   uint64 // vertices using the hash-table representation
	MaxDegree  int
	Singletons int // vertices with degree 0
}

// ComputeStats scans the shard and returns layout statistics.
func (s *Store) ComputeStats() Stats {
	st := Stats{Vertices: len(s.ids), Edges: s.edges, Promoted: s.promotions}
	for i := range s.adj {
		d := s.adj[i].degree()
		if d > st.MaxDegree {
			st.MaxDegree = d
		}
		if d == 0 {
			st.Singletons++
		}
	}
	return st
}
