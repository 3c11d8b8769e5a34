package serve

import (
	"sync/atomic"

	"incregraph/internal/graph"
	"incregraph/internal/rhh"
)

// Segment is one rank's immutable published view: the first n vertices of
// the rank's slot space, their per-algorithm values at publish time, and
// their out-adjacency. Readers obtain a Segment via one atomic pointer
// load and may then index it freely without synchronization.
//
// Sharing contract (why this is safe without copying everything):
//
//   - ids aliases the store's append-only id slice. Slot i's id is
//     written once, before any segment with n > i is published, and never
//     reassigned; readers only index < n. In-place appends by the owner
//     touch indexes >= n (disjoint), and a growth reallocation leaves the
//     old array — which published headers still point at — intact.
//   - vals are private copies made at publish.
//   - segs and tails hold slice headers copied at publish: segs alias the
//     store's compacted segments, which are immutable once handed off;
//     tails are mutated only append-beyond-len or copy-on-write
//     (Publisher). Either way every index < len stays frozen.
//   - idx is insert-only and shared across a publisher's segments; it may
//     gain entries for slots >= n after publication, which the n bounds
//     check in lookups rejects. A growth rebuild allocates a fresh table,
//     so older segments keep their exact old index.
//
// epoch is atomic only so a restamp (see Publisher.Publish) can bump it
// in place; the data it stamps is immutable.
type Segment struct {
	epoch atomic.Uint64
	n     int
	ids   []graph.VertexID
	vals  [][]uint64
	segs  [][]graph.HalfEdge // per slot: compacted segment (only Nbr is read)
	tails [][]graph.VertexID // per slot: neighbours added since compaction
	idx   *table
}

// table is a single-writer, many-reader open-addressing hash index from
// vertex id to slot. Insert-only: entries are never deleted or moved, so
// a reader's linear probe terminates at the first never-written position.
//
// Publication order makes lookups race-free: the writer stores the key,
// then the slot marker (both seq-cst atomics); segment publication
// (atomic pointer store) happens after every insert the segment depends
// on, so a reader that loaded the segment observes complete entries for
// every slot < n. Entries mid-insert can only belong to slots >= n,
// which the caller's bounds check rejects anyway.
type table struct {
	mask  uint64
	used  int
	keys  []atomic.Uint64 // vertex id (raw; validity gated by marks)
	marks []atomic.Uint64 // slot+1; 0 = empty
}

// newTable returns a table with the given power-of-two capacity.
func newTable(capacity int) *table {
	return &table{
		mask:  uint64(capacity - 1),
		keys:  make([]atomic.Uint64, capacity),
		marks: make([]atomic.Uint64, capacity),
	}
}

// insert adds id -> slot and returns the table to use for subsequent
// inserts (a freshly rebuilt, doubled table when load passes 3/4 —
// rebuilding rather than growing in place is what lets old segments keep
// their old index). Writer-only; ids are unique by construction (each
// vertex is inserted exactly once, when its slot first appears).
func (t *table) insert(id, slot uint64) *table {
	if t.used >= len(t.keys)-len(t.keys)/4 {
		bigger := newTable(len(t.keys) * 2)
		for i := range t.marks {
			if m := t.marks[i].Load(); m != 0 {
				bigger.place(t.keys[i].Load(), m-1)
			}
		}
		bigger.used = t.used
		t = bigger
	}
	t.place(id, slot)
	t.used++
	return t
}

func (t *table) place(id, slot uint64) {
	i := rhh.Hash64(id) & t.mask
	for t.marks[i].Load() != 0 {
		i = (i + 1) & t.mask
	}
	t.keys[i].Store(id)
	t.marks[i].Store(slot + 1)
}

// lookup probes for id. Safe to call concurrently with the writer.
func (t *table) lookup(id uint64) (uint64, bool) {
	i := rhh.Hash64(id) & t.mask
	for {
		m := t.marks[i].Load()
		if m == 0 {
			return 0, false
		}
		if t.keys[i].Load() == id {
			return m - 1, true
		}
		i = (i + 1) & t.mask
	}
}
