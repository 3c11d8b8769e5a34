package serve

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"incregraph/internal/graph"
	"incregraph/internal/partition"
)

func allLocal(int) bool { return true }

// onlyRank returns a local predicate admitting just r (cluster-mode shape).
func onlyRank(r int) func(int) bool { return func(i int) bool { return i == r } }

// pubWorld is a single-writer test harness standing in for a rank: an
// append-only id slice, one value column, and a publisher.
type pubWorld struct {
	plane  *Plane
	pubs   []*Publisher
	part   partition.Partitioner
	ids    [][]graph.VertexID // per rank
	vals   [][]uint64         // per rank, algo 0
	slots  []map[graph.VertexID]graph.Slot
	events []uint64
}

func newPubWorld(ranks int) *pubWorld {
	part := partition.NewHashed(ranks)
	w := &pubWorld{
		plane:  NewPlane(part, 1, allLocal),
		part:   part,
		ids:    make([][]graph.VertexID, ranks),
		vals:   make([][]uint64, ranks),
		slots:  make([]map[graph.VertexID]graph.Slot, ranks),
		events: make([]uint64, ranks),
	}
	for r := 0; r < ranks; r++ {
		w.pubs = append(w.pubs, w.plane.Publisher(r))
		w.slots[r] = make(map[graph.VertexID]graph.Slot)
	}
	return w
}

func (w *pubWorld) set(v graph.VertexID, val uint64) {
	r := w.part.Owner(v)
	slot, ok := w.slots[r][v]
	if !ok {
		slot = graph.Slot(len(w.ids[r]))
		w.slots[r][v] = slot
		w.ids[r] = append(w.ids[r], v)
		w.vals[r] = append(w.vals[r], 0)
	}
	w.vals[r][slot] = val
	w.events[r]++
}

func (w *pubWorld) addEdge(from, to graph.VertexID) {
	r := w.part.Owner(from)
	if _, ok := w.slots[r][from]; !ok {
		w.set(from, 0)
	}
	w.pubs[r].EdgeAdded(w.slots[r][from], to)
	w.events[r]++
}

func (w *pubWorld) publishAll() {
	for r, pub := range w.pubs {
		pub.Publish(w.ids[r], [][]uint64{w.vals[r]}, w.events[r])
	}
}

func TestPointLookup(t *testing.T) {
	w := newPubWorld(3)
	val, epoch := w.plane.Get(0, 7)
	if val.Found || epoch != 0 {
		t.Fatalf("unpublished plane served %+v at epoch %d", val, epoch)
	}
	w.set(7, 42)
	w.set(9, 11)
	w.publishAll()
	val, epoch = w.plane.Get(0, 7)
	if !val.Found || val.Val != 42 || epoch != 1 {
		t.Fatalf("got %+v at epoch %d, want val 42 at epoch 1", val, epoch)
	}
	if val, _ := w.plane.Get(0, 1234); val.Found {
		t.Fatalf("absent vertex served as found: %+v", val)
	}

	// Values written after publish are invisible until the next publish.
	w.set(7, 43)
	if val, _ := w.plane.Get(0, 7); val.Val != 42 {
		t.Fatalf("unpublished write leaked: %+v", val)
	}
	w.plane.Advance()
	w.publishAll()
	val, epoch = w.plane.Get(0, 7)
	if val.Val != 43 || epoch != 2 {
		t.Fatalf("got %+v at epoch %d, want 43 at epoch 2", val, epoch)
	}
}

func TestRestampKeepsContentBumpsEpoch(t *testing.T) {
	w := newPubWorld(1)
	w.set(1, 5)
	w.publishAll()
	st := w.plane.StatsSnapshot()
	if st.Publishes != 1 || st.Restamps != 0 {
		t.Fatalf("after first publish: %+v", st)
	}
	// No new events: advancing and republishing must restamp in place.
	w.plane.Advance()
	w.publishAll()
	st = w.plane.StatsSnapshot()
	if st.Publishes != 1 || st.Restamps != 1 || st.PublishedEpoch != 2 {
		t.Fatalf("after restamp: %+v", st)
	}
	if val, epoch := w.plane.Get(0, 1); val.Val != 5 || epoch != 2 {
		t.Fatalf("restamped read: %+v at %d", val, epoch)
	}
	// Due must clear even on the restamp path.
	if w.pubs[0].Due() {
		t.Fatal("due still set after restamp")
	}
}

func TestGetBatchMinEpoch(t *testing.T) {
	w := newPubWorld(2)
	// Publish both ranks at epoch 1, then advance and republish only the
	// rank owning vertex b at epoch 2: a batch touching both must report
	// the min, 1.
	var a, b graph.VertexID
	for v := graph.VertexID(1); v < 100 && (a == 0 || b == 0); v++ {
		if w.part.Owner(v) == 0 && a == 0 {
			a = v
		}
		if w.part.Owner(v) == 1 && b == 0 {
			b = v
		}
	}
	w.set(a, 10)
	w.set(b, 20)
	w.publishAll()
	w.plane.Advance()
	r1 := w.part.Owner(b)
	w.pubs[r1].Publish(w.ids[r1], [][]uint64{w.vals[r1]}, w.events[r1])

	out, epoch := w.plane.GetBatch(0, []graph.VertexID{a, b}, nil)
	if len(out) != 2 || !out[0].Found || !out[1].Found {
		t.Fatalf("batch: %+v", out)
	}
	if epoch != 1 {
		t.Fatalf("batch epoch %d, want min(1,2)=1", epoch)
	}
	// A batch touching only the freshly published rank reports 2.
	if _, epoch := w.plane.GetBatch(0, []graph.VertexID{b}, nil); epoch != 2 {
		t.Fatalf("single-owner batch epoch %d, want 2", epoch)
	}
}

func TestTopKAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := newPubWorld(4)
	want := map[graph.VertexID]uint64{}
	for i := 0; i < 500; i++ {
		v := graph.VertexID(rng.Intn(300))
		val := uint64(rng.Intn(50)) // heavy ties, incl. zeros
		w.set(v, val)
		want[v] = val
	}
	w.publishAll()

	brute := make([]Entry, 0, len(want))
	for v, val := range want {
		if val != 0 {
			brute = append(brute, Entry{Vertex: v, Val: val})
		}
	}
	for _, dir := range []Dir{DirMin, DirMax} {
		sort.Slice(brute, func(i, j int) bool {
			a, b := brute[i], brute[j]
			if a.Val != b.Val {
				if dir == DirMin {
					return a.Val < b.Val
				}
				return a.Val > b.Val
			}
			return a.Vertex < b.Vertex
		})
		for _, k := range []int{0, 1, 7, 64, len(brute), len(brute) + 10} {
			got, _ := w.plane.TopK(0, k, dir)
			wantN := k
			if wantN > len(brute) {
				wantN = len(brute)
			}
			if len(got) != wantN {
				t.Fatalf("dir %d k %d: got %d entries, want %d", dir, k, len(got), wantN)
			}
			for i := range got {
				if got[i] != brute[i] {
					t.Fatalf("dir %d k %d: entry %d = %+v, want %+v", dir, k, i, got[i], brute[i])
				}
			}
		}
	}
}

func TestNeighborhoodBFS(t *testing.T) {
	w := newPubWorld(2)
	// 1 -> 2 -> 3 -> 4, plus 1 -> 5.
	for v := graph.VertexID(1); v <= 5; v++ {
		w.set(v, uint64(v)*10)
	}
	w.addEdge(1, 2)
	w.addEdge(2, 3)
	w.addEdge(3, 4)
	w.addEdge(1, 5)
	w.publishAll()

	nodes, _ := w.plane.Neighborhood(0, 1, 2, 100)
	byV := map[graph.VertexID]NbhdNode{}
	for _, n := range nodes {
		byV[n.Vertex] = n
	}
	if len(nodes) != 4 { // 1, 2, 5, 3 — vertex 4 is 3 hops out
		t.Fatalf("depth-2 neighborhood: %+v", nodes)
	}
	if byV[1].Depth != 0 || byV[2].Depth != 1 || byV[5].Depth != 1 || byV[3].Depth != 2 {
		t.Fatalf("depths wrong: %+v", nodes)
	}
	if byV[3].Val != 30 || !byV[3].Found {
		t.Fatalf("node 3: %+v", byV[3])
	}
	if nodes[0].Vertex != 1 {
		t.Fatalf("root not first: %+v", nodes)
	}

	// limit truncates in BFS order.
	nodes, _ = w.plane.Neighborhood(0, 1, 3, 2)
	if len(nodes) != 2 || nodes[0].Vertex != 1 {
		t.Fatalf("limited neighborhood: %+v", nodes)
	}

	// Unknown root: a single not-found node.
	nodes, _ = w.plane.Neighborhood(0, 999, 2, 100)
	if len(nodes) != 1 || nodes[0].Found {
		t.Fatalf("unknown root: %+v", nodes)
	}
}

func TestCopyOnWriteIsolation(t *testing.T) {
	w := newPubWorld(1)
	for v := graph.VertexID(1); v <= 6; v++ {
		w.set(v, uint64(v))
	}
	slot := w.slots[0][1]
	pub := w.pubs[0]
	seg := []graph.HalfEdge{{Nbr: 2, W: 7}} // a compacted store segment
	pub.SegmentCompacted(slot, seg)
	w.addEdge(1, 3)
	w.addEdge(1, 5)
	w.addEdge(1, 6) // tail: len 3, cap 4
	w.publishAll()
	published := w.plane.segs[0].seg.Load()

	// Mutations after publish must not disturb the published view.
	w.addEdge(1, 4)               // in-place append beyond published len
	pub.EdgeDeleted(slot, 3, seg) // tail removal clones
	pub.EdgeDeleted(slot, 2, nil) // the store's post-delete segment
	if got := published.segs[slot]; len(got) != 1 || got[0].Nbr != 2 {
		t.Fatalf("published segment mutated: %+v", got)
	}
	if got := published.tails[slot]; len(got) != 3 || got[0] != 3 || got[1] != 5 || got[2] != 6 {
		t.Fatalf("published tail mutated: %+v", got)
	}

	// And the next publish sees all of them applied.
	w.plane.Advance()
	w.publishAll()
	nodes, _ := w.plane.Neighborhood(0, 1, 1, 10)
	got := map[graph.VertexID]bool{}
	for _, n := range nodes[1:] {
		got[n.Vertex] = true
	}
	if len(nodes) != 4 || !got[4] || !got[5] || !got[6] {
		t.Fatalf("post-mutation neighborhood: %+v", nodes)
	}
}

// TestCompactionEmptiesTail checks that a compaction hands the whole
// adjacency to the segment: the next publish serves the segment and an
// empty tail, and the previously published view keeps its tail.
func TestCompactionEmptiesTail(t *testing.T) {
	w := newPubWorld(1)
	w.set(1, 1)
	slot := w.slots[0][1]
	w.addEdge(1, 3)
	w.addEdge(1, 2)
	w.publishAll()
	before := w.plane.segs[0].seg.Load()

	w.pubs[0].SegmentCompacted(slot, []graph.HalfEdge{{Nbr: 2}, {Nbr: 3}})
	w.events[0]++
	w.plane.Advance()
	w.publishAll()
	after := w.plane.segs[0].seg.Load()
	if len(after.segs[slot]) != 2 || len(after.tails[slot]) != 0 {
		t.Fatalf("after compaction: seg %+v, tail %+v", after.segs[slot], after.tails[slot])
	}
	if len(before.segs[slot]) != 0 || len(before.tails[slot]) != 2 {
		t.Fatalf("earlier view changed: seg %+v, tail %+v", before.segs[slot], before.tails[slot])
	}
	if nodes, _ := w.plane.Neighborhood(0, 1, 1, 10); len(nodes) != 3 {
		t.Fatalf("neighborhood after compaction: %+v", nodes)
	}
}

func TestIndexGrowthKeepsOldSegmentsValid(t *testing.T) {
	w := newPubWorld(1)
	w.set(1, 11)
	w.publishAll()
	old := w.plane.segs[0].seg.Load()

	// Blow far past the initial 1024-capacity table so it rebuilds at
	// least once; the old segment must keep resolving via its old index
	// and must not see the new vertices.
	for v := graph.VertexID(2); v < 3000; v++ {
		w.set(v, uint64(v))
	}
	w.plane.Advance()
	w.publishAll()

	if val, _ := segGet(old, 0, 1); !val.Found || val.Val != 11 {
		t.Fatalf("old segment lost vertex 1: %+v", val)
	}
	if val, _ := segGet(old, 0, 2500); val.Found {
		t.Fatalf("old segment sees future vertex: %+v", val)
	}
	if val, _ := w.plane.Get(0, 2500); !val.Found || val.Val != 2500 {
		t.Fatalf("new segment missing vertex 2500: %+v", val)
	}
}

func TestRemoteRanksReadNotFound(t *testing.T) {
	part := partition.NewHashed(2)
	plane := NewPlane(part, 1, onlyRank(0))
	pub := plane.Publisher(0)
	var local, remote graph.VertexID
	for v := graph.VertexID(1); local == 0 || remote == 0; v++ {
		if part.Owner(v) == 0 && local == 0 {
			local = v
		}
		if part.Owner(v) == 1 && remote == 0 {
			remote = v
		}
	}
	pub.Publish([]graph.VertexID{local}, [][]uint64{{5}}, 1)
	if val, _ := plane.Get(0, local); !val.Found || val.Val != 5 {
		t.Fatalf("local read: %+v", val)
	}
	if val, epoch := plane.Get(0, remote); val.Found || epoch != 0 {
		t.Fatalf("remote-owned vertex served locally: %+v at %d", val, epoch)
	}
	if st := plane.StatsSnapshot(); st.PublishedEpoch != 1 {
		t.Fatalf("remote rank dragged PublishedEpoch down: %+v", st)
	}
}

// TestConcurrentReadersUnderChurn is the -race workhorse: one writer
// goroutine per rank keeps mutating and publishing while reader
// goroutines hammer every verb, asserting per-vertex epoch monotonicity
// and that values never regress (the writer only ever increases them).
func TestConcurrentReadersUnderChurn(t *testing.T) {
	const (
		ranks   = 2
		readers = 4
		rounds  = 200
	)
	w := newPubWorld(ranks)
	w.set(1, 1) // ensure vertex 1 exists from the first publish
	w.publishAll()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: monotone values, growing graph, frequent publishes
		defer wg.Done()
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < rounds; i++ {
			for j := 0; j < 8; j++ {
				v := graph.VertexID(rng.Intn(64) + 1)
				w.set(v, uint64(i+1))
				w.addEdge(v, graph.VertexID(rng.Intn(64)+1))
			}
			w.plane.Advance()
			w.publishAll()
		}
		close(stop)
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			lastEpoch := map[graph.VertexID]uint64{}
			lastVal := map[graph.VertexID]uint64{}
			batch := make([]Value, 0, 8)
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := graph.VertexID(rng.Intn(64) + 1)
				val, epoch := w.plane.Get(0, v)
				if epoch < lastEpoch[v] {
					t.Errorf("epoch regressed for %d: %d -> %d", v, lastEpoch[v], epoch)
					return
				}
				lastEpoch[v] = epoch
				if val.Found {
					if val.Val < lastVal[v] {
						t.Errorf("value regressed for %d: %d -> %d", v, lastVal[v], val.Val)
						return
					}
					lastVal[v] = val.Val
				}
				batch = batch[:0]
				batch, _ = w.plane.GetBatch(0, []graph.VertexID{v, v + 1, v + 2}, batch)
				_ = batch
				if rng.Intn(8) == 0 {
					w.plane.TopK(0, 10, DirMax)
					w.plane.Neighborhood(0, v, 2, 64)
				}
			}
		}(int64(r))
	}
	wg.Wait()
}
