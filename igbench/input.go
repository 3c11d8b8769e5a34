package main

import (
	"math/rand"

	"incregraph"
	"incregraph/internal/csr"
	"incregraph/internal/gen"
	"incregraph/internal/graph"
	"incregraph/internal/rmat"
)

// rmatEdges is the twitter-sim generator: R-MAT with the Graph500
// quadrants, noise 0.1, edge factor 16 and weights 1..16, shuffled. The
// whole instance follows from seed.
func rmatEdges(scale int, seed int64) []graph.Edge {
	cfg := rmat.Config{Scale: scale, EdgeFactor: 16, Noise: 0.1, MaxWeight: 16,
		Seed: uint64(seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d}
	return gen.Shuffle(rmat.GenerateParallel(cfg, 2), seed)
}

// maxDegreeVertex returns the vertex with the most incident edges (the
// smallest such ID on ties).
func maxDegreeVertex(edges []graph.Edge) graph.VertexID {
	deg := map[graph.VertexID]int{}
	for _, e := range edges {
		deg[e.Src]++
		deg[e.Dst]++
	}
	var best graph.VertexID
	bestDeg := -1
	for v, d := range deg {
		if d > bestDeg || (d == bestDeg && v < best) {
			best, bestDeg = v, d
		}
	}
	return best
}

// survivors returns the edges a churn stream leaves in the graph: every
// pair whose last event is an add, with the smallest weight it was added
// with while alive (the engine keeps the minimum).
func survivors(events []graph.EdgeEvent) []graph.Edge {
	type key [2]graph.VertexID
	alive := map[key]graph.Edge{}
	for _, ev := range events {
		k := key{min(ev.Src, ev.Dst), max(ev.Src, ev.Dst)}
		old, ok := alive[k]
		switch {
		case ev.Delete:
			delete(alive, k)
		case !ok || ev.W < old.W:
			alive[k] = ev.Edge
		}
	}
	out := make([]graph.Edge, 0, len(alive))
	for _, e := range alive {
		out = append(out, e)
	}
	return out
}

// oracle is the static answer one program must converge to on a graph,
// indexed by vertex ID, with the set of vertices the graph holds.
type oracle struct {
	want    []uint64
	present map[graph.VertexID]bool
}

// staticOracles computes each program's static answer over edges (taken as
// undirected, as the engine stores them). kinds names the programs in
// order: "bfs", "sssp" or "cc"; src is the BFS/SSSP source. seen lists
// every edge the stream ever carried: the engine keeps a vertex once it has
// appeared, even after a delete leaves it isolated.
func staticOracles(edges, seen []graph.Edge, kinds []string, src graph.VertexID) []oracle {
	topo := csr.Build(edges, true)
	present := map[graph.VertexID]bool{}
	var maxID graph.VertexID
	for _, e := range seen {
		present[e.Src] = true
		present[e.Dst] = true
		maxID = max(maxID, e.Src, e.Dst)
	}
	out := make([]oracle, len(kinds))
	for i, k := range kinds {
		var want []uint64
		switch k {
		case "bfs":
			want = incregraph.StaticBFS(topo, src)
		case "sssp":
			want = incregraph.StaticSSSP(topo, src)
		case "cc":
			want = incregraph.StaticCC(topo)
		default:
			panic("igbench: no oracle for " + k)
		}
		// IDs above the surviving topology's largest are isolated.
		for v := graph.VertexID(len(want)); v <= maxID; v++ {
			iso := incregraph.Infinity
			if k == "cc" {
				iso = incregraph.CCLabelOf(v)
			}
			want = append(want, iso)
		}
		out[i] = oracle{want: want, present: present}
	}
	return out
}

// mismatches counts the vertices of got that disagree with o, plus the
// vertices o holds that got lacks.
func (o oracle) mismatches(got []incregraph.VertexValue) int {
	bad := 0
	for _, p := range got {
		if !o.present[p.ID] || int(p.ID) >= len(o.want) || o.want[p.ID] != p.Val {
			bad++
		}
	}
	if len(got) < len(o.present) {
		bad += len(o.present) - len(got)
	}
	return bad
}

// idBatches returns n batches of size uniform vertex IDs below limit.
func idBatches(rng *rand.Rand, n, size int, limit uint64) [][]graph.VertexID {
	out := make([][]graph.VertexID, n)
	for i := range out {
		b := make([]graph.VertexID, size)
		for j := range b {
			b[j] = graph.VertexID(rng.Uint64() % limit)
		}
		out[i] = b
	}
	return out
}
