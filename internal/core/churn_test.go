package core_test

import (
	"fmt"
	"testing"

	"incregraph/internal/algo"
	"incregraph/internal/core"
	"incregraph/internal/csr"
	"incregraph/internal/gen"
	"incregraph/internal/graph"
	"incregraph/internal/static"
	"incregraph/internal/stream"
)

// survivingEdges replays a churned event stream the way an undirected
// store with the default keep-minimum weight policy does: a duplicate add
// of a live pair keeps the smaller weight, a delete removes the pair, and a
// re-add starts over with its own weight. It returns one edge per pair
// alive at the end, in first-appearance order.
func survivingEdges(events []graph.EdgeEvent) []graph.Edge {
	key := func(a, b graph.VertexID) [2]graph.VertexID {
		if a > b {
			a, b = b, a
		}
		return [2]graph.VertexID{a, b}
	}
	alive := map[[2]graph.VertexID]graph.Edge{}
	var order [][2]graph.VertexID
	for _, ev := range events {
		k := key(ev.Src, ev.Dst)
		cur, ok := alive[k]
		switch {
		case ev.Delete:
			delete(alive, k)
		case ok:
			cur.W = min(cur.W, ev.W)
			alive[k] = cur
		default:
			alive[k] = ev.Edge
			order = append(order, k)
		}
	}
	var out []graph.Edge
	seen := map[[2]graph.VertexID]bool{}
	for _, k := range order {
		if ed, ok := alive[k]; ok && !seen[k] {
			seen[k] = true
			out = append(out, ed)
		}
	}
	return out
}

// TestMultiProgramChurnDifferential hosts BFS, SSSP, CC and Degree in one
// undirected engine over a churned stream (live deletes and re-adds) and
// checks every program against its static oracle on the surviving edges.
// With several programs each edge insertion (deletion) emits one
// REVERSE_ADD (REVERSE_DELETE) per program and only the first touches the
// store, so this is the test that the later programs' reverse events see
// the edge their first one put in place or took away — including across
// deletes and re-adds of the same pair.
func TestMultiProgramChurnDifferential(t *testing.T) {
	// The sparse graph falls apart under churn, so deletions move BFS,
	// SSSP and CC values; the dense one keeps them mostly stable and
	// stresses duplicate adds and re-adds instead.
	for _, g := range []struct {
		name string
		m    int
	}{{"sparse", 450}, {"dense", 1500}} {
		var base []graph.Edge
		for _, ed := range gen.ErdosRenyi(300, g.m, 8, 21) {
			if ed.Src != ed.Dst {
				base = append(base, ed)
			}
		}
		events := gen.Churn(base, 0.25, 5)
		for _, ranks := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s/ranks=%d", g.name, ranks), func(t *testing.T) {
				checkMultiProgramChurn(t, events, ranks)
			})
		}
	}
}

// checkMultiProgramChurn runs events through a BFS+SSSP+CC+Degree engine
// on the given rank count and compares every program with its oracle.
func checkMultiProgramChurn(t *testing.T, events []graph.EdgeEvent, ranks int) {
	deletes := 0
	for _, ev := range events {
		if ev.Delete {
			deletes++
		}
	}
	if deletes == 0 {
		t.Fatal("churn stream carried no deletes — differential is vacuous")
	}
	surv := survivingEdges(events)
	topo := csr.Build(surv, true)
	src := surv[0].Src
	oracles := []struct {
		name string
		want []uint64
		// absent is the value of a vertex with no surviving edge and an
		// ID beyond the oracle's range.
		absent func(graph.VertexID) uint64
	}{
		{"bfs", static.BFS(topo, src), func(graph.VertexID) uint64 { return core.Infinity }},
		{"sssp", static.Dijkstra(topo, src), func(graph.VertexID) uint64 { return core.Infinity }},
		{"cc", static.ConnectedComponents(topo), graph.CCLabel},
		{"degree", static.Degrees(topo), func(graph.VertexID) uint64 { return 0 }},
	}

	e := core.New(core.Options{Ranks: ranks, Undirected: true},
		algo.BFS{}, algo.SSSP{}, algo.CC{}, algo.Degree{})
	e.InitVertex(0, src)
	e.InitVertex(1, src)
	if _, err := e.Run(stream.SplitEventsByPair(events, ranks)); err != nil {
		t.Fatal(err)
	}
	if got := e.EngineStats().Events.Deletes; got != uint64(deletes) {
		t.Fatalf("processed %d deletes, want %d", got, deletes)
	}
	for a, o := range oracles {
		got := e.CollectMap(a)
		for _, ed := range surv {
			if _, ok := got[ed.Src]; !ok {
				t.Fatalf("%s: surviving endpoint %d missing", o.name, ed.Src)
			}
			if _, ok := got[ed.Dst]; !ok {
				t.Fatalf("%s: surviving endpoint %d missing", o.name, ed.Dst)
			}
		}
		for v, val := range got {
			want := o.absent(v)
			if int(v) < len(o.want) {
				want = o.want[v]
			}
			if val != want {
				t.Fatalf("%s: vertex %d = %d, want %d", o.name, v, val, want)
			}
		}
	}
}
