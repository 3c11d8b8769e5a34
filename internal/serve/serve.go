// Package serve is the MVCC read plane: epoch-stamped, read-mostly
// replicas of per-rank vertex state, published by the owning rank at epoch
// boundaries and read lock-free by any number of concurrent query
// goroutines while ingestion keeps running.
//
// The design is RCU-style single-writer/many-reader per rank:
//
//   - Each local rank owns a Publisher. At every epoch boundary the rank
//     (from its own goroutine, at an event boundary — never mid-event)
//     builds an immutable Segment — vertex values copied, adjacency slice
//     headers copied — and swaps it in with one atomic pointer store.
//   - Served adjacency is topology only (neighbour IDs; weights are not
//     served). Each vertex's adjacency is two parts: the store's
//     compacted segment, shared by reference, and a tail of the
//     neighbours added since that vertex's last compaction. Nothing is
//     copied per edge beyond the tail's own ID (see Publisher).
//   - Readers load the pointer, and from then on see a frozen, internally
//     consistent view: the segment's value arrays are private copies, its
//     adjacency headers point at arrays nobody writes below the published
//     length (store segments are immutable once handed off, tails are
//     append-beyond-published-length or copy-on-write), and its index
//     only ever *gains* entries past the segment's bound (which the
//     bounds check rejects).
//   - No locks anywhere on the read path, no barrier, no rank parking:
//     publication costs the owner O(V) slice-header+value copies, reads
//     cost a hash probe plus array indexing.
//
// Epochs are a global counter advanced by a ticker (or a sim driver); a
// publish stamps the current epoch onto the new segment. If a rank
// processed no events since its last publish, it merely re-stamps the
// existing segment with the new epoch ("restamp") — sound because the
// content provably didn't change, so it is current *at* the newer epoch.
// Every read echoes the epoch of the segment(s) it touched, giving
// clients read-your-epoch consistency: values may be stale (up to one
// epoch interval) but are always a consistent committed prefix, never a
// torn mid-event view.
//
// The package is deliberately engine-free: it imports only graph and
// partition, and the core engine layers lifecycle, scheduling, and
// latency accounting on top.
package serve

import (
	"sync/atomic"

	"incregraph/internal/graph"
	"incregraph/internal/partition"
)

// Plane is the per-engine read plane: one published segment slot per
// rank plus the global epoch counter.
type Plane struct {
	part  partition.Partitioner
	algos int
	local func(int) bool // is this rank hosted in-process?

	epoch     atomic.Uint64
	publishes atomic.Uint64
	restamps  atomic.Uint64

	segs []rankSlot
}

// rankSlot is one rank's publication slot, padded so concurrent readers
// of neighbouring ranks don't false-share cache lines.
type rankSlot struct {
	_   [64]byte
	seg atomic.Pointer[Segment]
	due atomic.Bool
	_   [64]byte
}

// NewPlane builds a read plane over ranks() partitions serving algos
// algorithm value columns. local reports whether a rank is hosted in this
// process (remote ranks never publish here and their vertices read as
// not-found — the plane serves the local shard, like Collect in cluster
// mode). The epoch counter starts at 1 so that epoch 0 unambiguously
// means "never published".
func NewPlane(part partition.Partitioner, algos int, local func(int) bool) *Plane {
	p := &Plane{
		part:  part,
		algos: algos,
		local: local,
		segs:  make([]rankSlot, part.Ranks()),
	}
	p.epoch.Store(1)
	return p
}

// Advance bumps the global epoch and marks every local rank due for
// publication. The caller is responsible for waking parked ranks so the
// publish actually happens promptly.
func (p *Plane) Advance() uint64 {
	e := p.epoch.Add(1)
	for i := range p.segs {
		if p.local(i) {
			p.segs[i].due.Store(true)
		}
	}
	return e
}

// Epoch returns the current global epoch.
func (p *Plane) Epoch() uint64 { return p.epoch.Load() }

// Stats is a point-in-time snapshot of plane-level counters.
type Stats struct {
	// Epoch is the current global epoch counter.
	Epoch uint64
	// PublishedEpoch is the minimum epoch across local ranks' published
	// segments — the staleness floor every read is guaranteed to meet.
	// Zero until every local rank has published at least once.
	PublishedEpoch uint64
	// Publishes counts full segment publications (content changed).
	Publishes uint64
	// Restamps counts publications elided because the rank processed no
	// events since its previous segment — the old segment was re-stamped
	// with the new epoch in place.
	Restamps uint64
}

// StatsSnapshot reads the plane counters.
func (p *Plane) StatsSnapshot() Stats {
	s := Stats{
		Epoch:     p.epoch.Load(),
		Publishes: p.publishes.Load(),
		Restamps:  p.restamps.Load(),
	}
	for i := range p.segs {
		if !p.local(i) {
			continue
		}
		var e uint64
		if seg := p.segs[i].seg.Load(); seg != nil {
			e = seg.epoch.Load()
		}
		if s.PublishedEpoch == 0 || e < s.PublishedEpoch {
			s.PublishedEpoch = e
		}
	}
	return s
}

// Publisher is a rank's single-writer handle onto the plane. All methods
// must be called from the owning rank's goroutine only; readers never
// touch a Publisher.
//
// The publisher mirrors the rank's topology — neighbour IDs only; weights
// are not served — as two parts per vertex:
//
//   - seg, the store's compacted segment held by reference. The store
//     never writes to a segment it has handed out (graph.Store.Segment
//     marks it shared; weight merges clone it, deletes always clone), so
//     it needs no copy here.
//   - tail, an append-only list of the neighbours added since the
//     vertex's last compaction (the whole adjacency when the store never
//     compacts). Appending in place is safe: it writes an index >= the
//     length any published slice header recorded, and if append
//     reallocates, published headers keep the old array. Removing an
//     entry clones the tail first, because published headers may alias
//     the current array at indexes a concurrent reader is allowed to
//     touch.
type Publisher struct {
	p    *Plane
	rank int

	segs  [][]graph.HalfEdge // per slot: the store's compacted segment, by reference
	tails [][]graph.VertexID // per slot: neighbours added since the last compaction
	idx   *table             // insert-only vertex-id -> slot index
	idxN  int                // ids[0:idxN] already inserted into idx

	lastEvents uint64 // rank event-counter value at the last full publish
	published  bool   // has this publisher ever published?
}

// Publisher returns the single-writer handle for rank. Call once per
// local rank.
func (p *Plane) Publisher(rank int) *Publisher {
	return &Publisher{p: p, rank: rank, idx: newTable(1024)}
}

// Due reports whether an epoch boundary passed since this rank last
// published.
func (pub *Publisher) Due() bool {
	return pub.p.segs[pub.rank].due.Load()
}

// EdgeAdded mirrors a brand-new half-edge slot -> nbr by appending it to
// the vertex's tail (see the type comment for why in place is safe).
// Duplicate inserts change no topology and are not mirrored.
func (pub *Publisher) EdgeAdded(slot graph.Slot, nbr graph.VertexID) {
	s := int(slot)
	for len(pub.tails) <= s {
		pub.tails = append(pub.tails, nil)
	}
	pub.tails[s] = append(pub.tails[s], nbr)
}

// SegmentCompacted installs the store's freshly compacted segment for
// the vertex, which now holds every tail entry, and empties the tail.
// Published slice headers keep the old arrays.
func (pub *Publisher) SegmentCompacted(slot graph.Slot, seg []graph.HalfEdge) {
	s := int(slot)
	pub.setSeg(s, seg)
	if s < len(pub.tails) {
		pub.tails[s] = nil
	}
}

// EdgeDeleted mirrors removal of the half-edge slot -> nbr. seg is the
// store's segment after the delete (a fresh clone when nbr lived there,
// the unchanged segment otherwise); nbr is clone-removed from the tail if
// it lived there instead.
func (pub *Publisher) EdgeDeleted(slot graph.Slot, nbr graph.VertexID, seg []graph.HalfEdge) {
	s := int(slot)
	pub.setSeg(s, seg)
	if s >= len(pub.tails) {
		return
	}
	old := pub.tails[s]
	for i := range old {
		if old[i] != nbr {
			continue
		}
		clone := make([]graph.VertexID, 0, len(old)-1)
		clone = append(clone, old[:i]...)
		pub.tails[s] = append(clone, old[i+1:]...)
		return
	}
}

func (pub *Publisher) setSeg(s int, seg []graph.HalfEdge) {
	for len(pub.segs) <= s {
		pub.segs = append(pub.segs, nil)
	}
	pub.segs[s] = seg
}

// Publish builds and swaps in a fresh segment for this rank: ids is the
// store's append-only vertex-id slice (shared, never copied — slot i is
// ids[i] forever), vals the rank's live per-algorithm value columns
// (copied), and events the rank's total processed-event count, used as a
// mutation clock: if it hasn't moved since the last full publish, the
// existing segment is re-stamped with the current epoch instead of
// rebuilt.
func (pub *Publisher) Publish(ids []graph.VertexID, vals [][]uint64, events uint64) {
	slot := &pub.p.segs[pub.rank]
	// Clear due before loading the epoch: if Advance lands in between,
	// due goes true again and the next publishChores pass re-stamps at
	// the newer epoch — an epoch bump is never silently lost.
	slot.due.Store(false)
	epoch := pub.p.epoch.Load()

	if cur := slot.seg.Load(); cur != nil && pub.published && events == pub.lastEvents {
		if cur.epoch.Load() != epoch {
			cur.epoch.Store(epoch)
			pub.p.restamps.Add(1)
		}
		return
	}

	n := len(ids)
	for i := pub.idxN; i < n; i++ {
		pub.idx = pub.idx.insert(uint64(ids[i]), uint64(i))
	}
	pub.idxN = n

	seg := &Segment{n: n, ids: ids, idx: pub.idx}
	seg.vals = make([][]uint64, len(vals))
	for a := range vals {
		col := make([]uint64, n)
		copy(col, vals[a])
		seg.vals[a] = col
	}
	// The working columns may be shorter than n: the missing slots read
	// as empty.
	seg.segs = make([][]graph.HalfEdge, n)
	copy(seg.segs, pub.segs)
	seg.tails = make([][]graph.VertexID, n)
	copy(seg.tails, pub.tails)

	seg.epoch.Store(epoch)
	slot.seg.Store(seg)
	pub.lastEvents = events
	pub.published = true
	pub.p.publishes.Add(1)
}
