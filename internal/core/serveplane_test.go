package core_test

import (
	"sort"
	"sync"
	"testing"
	"time"

	"incregraph/internal/algo"
	"incregraph/internal/core"
	"incregraph/internal/gen"
	"incregraph/internal/graph"
	"incregraph/internal/serve"
	"incregraph/internal/stream"
)

// TestServeFinalStateMatchesCollect runs the production ticker path end to
// end and checks the read plane's post-termination answers are exactly the
// barrier answers: exit() force-publishes, so after Run the plane serves
// the converged state.
func TestServeFinalStateMatchesCollect(t *testing.T) {
	edges := gen.ErdosRenyi(300, 2400, 1, 7)
	e := core.New(core.Options{
		Ranks: 3, Undirected: true,
		Serve: true, ServeEvery: time.Millisecond,
	}, algo.BFS{})
	e.InitVertex(0, edges[0].Src)
	if _, err := e.Run(stream.Split(edges, 3)); err != nil {
		t.Fatal(err)
	}
	want := e.CollectMap(0)
	if len(want) == 0 {
		t.Fatal("empty collect")
	}
	batchIDs := make([]graph.VertexID, 0, len(want))
	for v, val := range want {
		got, epoch := e.ReadPoint(0, v)
		if !got.Found || got.Val != val {
			t.Fatalf("vertex %d: served %+v, want %d", v, got, val)
		}
		if epoch == 0 {
			t.Fatalf("vertex %d served at epoch 0 after termination", v)
		}
		batchIDs = append(batchIDs, v)
	}
	if got, _ := e.ReadPoint(0, 1<<40); got.Found {
		t.Fatalf("absent vertex served as found: %+v", got)
	}

	vals, _ := e.ReadBatch(0, batchIDs, nil)
	for i, v := range vals {
		if !v.Found || v.Val != want[batchIDs[i]] {
			t.Fatalf("batch[%d] vertex %d: %+v, want %d", i, batchIDs[i], v, want[batchIDs[i]])
		}
	}

	// TopK against brute force over the nonzero collected values.
	brute := make([]serve.Entry, 0, len(want))
	for v, val := range want {
		if val != 0 {
			brute = append(brute, serve.Entry{Vertex: v, Val: val})
		}
	}
	sort.Slice(brute, func(i, j int) bool {
		if brute[i].Val != brute[j].Val {
			return brute[i].Val < brute[j].Val
		}
		return brute[i].Vertex < brute[j].Vertex
	})
	topk, _ := e.ReadTopK(0, 10, serve.DirMin)
	for i := range topk {
		if topk[i] != brute[i] {
			t.Fatalf("topk[%d] = %+v, want %+v", i, topk[i], brute[i])
		}
	}

	// Neighborhood of the init root: every returned node's value must
	// match collect, and the depth-1 nodes must be exactly the root's
	// neighbours in the (undirected) input.
	root := edges[0].Src
	nbrs := map[graph.VertexID]bool{}
	for _, ed := range edges {
		if ed.Src == root && ed.Dst != root {
			nbrs[ed.Dst] = true
		}
		if ed.Dst == root && ed.Src != root {
			nbrs[ed.Src] = true
		}
	}
	nodes, _ := e.ReadNeighborhood(0, root, 2, 1000)
	if len(nodes) == 0 || nodes[0].Vertex != root {
		t.Fatalf("neighborhood: %+v", nodes)
	}
	depth1 := 0
	for _, n := range nodes {
		if !n.Found {
			t.Fatalf("unreached node in neighborhood of an existing root: %+v", n)
		}
		if n.Val != want[n.Vertex] {
			t.Fatalf("neighborhood vertex %d = %d, want %d", n.Vertex, n.Val, want[n.Vertex])
		}
		if n.Depth == 1 {
			depth1++
			if !nbrs[n.Vertex] {
				t.Fatalf("depth-1 node %d is not a neighbour of %d", n.Vertex, root)
			}
		}
	}
	if depth1 != len(nbrs) {
		t.Fatalf("neighborhood of %d has %d depth-1 nodes, want %d", root, depth1, len(nbrs))
	}

	st := e.EngineStats()
	if !st.Serve.Enabled || st.Serve.Publishes == 0 || st.Serve.PublishedEpoch == 0 {
		t.Fatalf("serve stats: %+v", st.Serve)
	}
	if st.Serve.PointReads == 0 || st.Serve.BatchReads == 0 || st.Serve.TopKReads == 0 || st.Serve.NbhdReads == 0 {
		t.Fatalf("read counters: %+v", st.Serve)
	}
	if st.Latency.QueryPoint.Count == 0 || st.Latency.QueryBatch.Count == 0 {
		t.Fatalf("query histograms empty: %+v", st.Latency.QueryPoint)
	}
}

// TestServeConcurrentReadsDuringRun hammers the read plane from several
// goroutines while ingestion runs (the -race workhorse for the lock-free
// read path), asserting per-vertex epoch monotonicity. The add-only case
// also asserts BFS-value monotonicity (values only ever tighten downward
// once set). The churn case reads a neighbourhood on every iteration, so
// the segment and tail swaps that deletes make race with readers.
func TestServeConcurrentReadsDuringRun(t *testing.T) {
	edges := gen.ErdosRenyi(400, 6000, 1, 11)
	t.Run("add", func(t *testing.T) {
		concurrentServeReads(t, edges[0].Src, stream.Split(edges, 4), false)
	})
	t.Run("churn", func(t *testing.T) {
		concurrentServeReads(t, edges[0].Src, stream.SplitEventsByPair(gen.Churn(edges, 0.25, 11), 4), true)
	})
}

func concurrentServeReads(t *testing.T, root graph.VertexID, streams []stream.Stream, churn bool) {
	e := core.New(core.Options{
		Ranks: 4, Undirected: true,
		Serve: true, ServeEvery: 200 * time.Microsecond,
	}, algo.BFS{})
	e.InitVertex(0, root)
	if err := e.Start(streams); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			lastEpoch := map[graph.VertexID]uint64{}
			lastVal := map[graph.VertexID]uint64{}
			buf := make([]serve.Value, 0, 16)
			rng := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				rng = rng*6364136223846793005 + 1442695040888963407
				v := graph.VertexID(rng % 400)
				val, epoch := e.ReadPoint(0, v)
				if epoch < lastEpoch[v] {
					t.Errorf("epoch regressed for %d: %d -> %d", v, lastEpoch[v], epoch)
					return
				}
				lastEpoch[v] = epoch
				if !churn && val.Found && val.Val != 0 {
					if prev := lastVal[v]; prev != 0 && val.Val > prev {
						t.Errorf("BFS value regressed for %d: %d -> %d", v, prev, val.Val)
						return
					}
					lastVal[v] = val.Val
				}
				buf = buf[:0]
				buf, _ = e.ReadBatch(0, []graph.VertexID{v, v + 1, v + 7}, buf)
				_ = buf
				if churn {
					e.ReadNeighborhood(0, v, 2, 128)
				} else if rng%64 == 0 {
					e.ReadTopK(0, 8, serve.DirMin)
					e.ReadNeighborhood(0, v, 2, 128)
				}
			}
		}(uint64(g)*977 + 13)
	}
	e.Wait()
	close(stop)
	wg.Wait()
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
}
