package main

import (
	"time"

	"incregraph/internal/graph"
	"incregraph/internal/partition"
)

// storeOp is one adjacency mutation a rank's store performs: the edge
// src→dst is added or, when del is set, removed.
type storeOp struct {
	src, dst graph.VertexID
	w        graph.Weight
	del      bool
}

func edgeEvents(edges []graph.Edge) []graph.EdgeEvent {
	out := make([]graph.EdgeEvent, len(edges))
	for i, e := range edges {
		out[i] = graph.EdgeEvent{Edge: e}
	}
	return out
}

// splitByOwner turns a stream into the mutations each rank's store sees in
// undirected mode: the owner of Src stores Src→Dst and the owner of Dst the
// reverse entry, with the engine's default hashed partitioning.
func splitByOwner(events []graph.EdgeEvent, ranks int) [][]storeOp {
	part := partition.NewHashed(ranks)
	out := make([][]storeOp, ranks)
	for _, ev := range events {
		out[part.Owner(ev.Src)] = append(out[part.Owner(ev.Src)], storeOp{ev.Src, ev.Dst, ev.W, ev.Delete})
		out[part.Owner(ev.Dst)] = append(out[part.Owner(ev.Dst)], storeOp{ev.Dst, ev.Src, ev.W, ev.Delete})
	}
	return out
}

// replayLayer replays each rank's store mutations into a standalone
// graph.Store configured as the engine configures its own (default small
// cap, hybrid tier on, minimum-weight merge, one compaction step per
// mutation), then scans every adjacency. It fills the graph.* figures and
// checks the replayed edge count against the engine's.
func (r *runner) replayLayer(parts [][]storeOp, wantTopo uint64) {
	span := r.tr.Begin("graph.replay", r.root)
	defer r.tr.End(span)
	stores := make([]*graph.Store, len(parts))
	var addNS, delNS, scanNS time.Duration
	var adds, dels, scanned uint64
	base := liveHeap()
	for i, ops := range parts {
		st := graph.NewStore(0)
		st.SetWeightPolicy(graph.WeightMin)
		st.EnableHybrid(0)
		stores[i] = st
		// Time runs of like mutations so a clock read is paid per run,
		// not per add, on add-only input.
		for k := 0; k < len(ops); {
			del := ops[k].del
			end := k
			for end < len(ops) && ops[end].del == del {
				end++
			}
			t := time.Now()
			for _, op := range ops[k:end] {
				if del {
					st.DeleteEdge(op.src, op.dst)
				} else {
					st.AddEdge(op.src, op.dst, op.w, 0)
				}
				st.CompactNext()
			}
			if d := time.Since(t); del {
				delNS += d
				dels += uint64(end - k)
			} else {
				addNS += d
				adds += uint64(end - k)
			}
			k = end
		}
	}
	var entries uint64
	for _, st := range stores {
		entries += st.NumEdges()
	}
	held := liveHeap()
	for _, st := range stores {
		t := time.Now()
		for slot := 0; slot < st.NumVertices(); slot++ {
			st.Neighbors(graph.Slot(slot), func(graph.VertexID, graph.Weight) bool {
				scanned++
				return true
			})
		}
		scanNS += time.Since(t)
	}
	r.tally.check(scanned == entries, "replay scanned %d entries, stores hold %d", scanned, entries)
	r.tally.check(adds+dels == 2*wantTopo, "replay applied %d mutations, want %d", adds+dels, 2*wantTopo)
	r.setLayer("graph.add_ns_per_edge", ratio(float64(addNS), float64(adds)))
	r.setLayer("graph.delete_ns_per_edge", ratio(float64(delNS), float64(dels)))
	r.setLayer("graph.scan_ns_per_edge", ratio(float64(scanNS), float64(scanned)))
	if held > base {
		r.setLayer("graph.bytes_per_edge", ratio(float64(held-base), float64(entries)))
	}
}
