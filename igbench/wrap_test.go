package main

import (
	"encoding/json"
	"os"
	"testing"

	"incregraph"
	"incregraph/internal/core"
	"incregraph/internal/gen"
	"incregraph/internal/graph"
)

// ingestOnce runs programs over streams at one rank, optionally through
// the tracing wrappers, and returns the engine counters and each program's
// converged state.
func ingestOnce(t *testing.T, traced bool, progs []incregraph.Program, inits []initVertex,
	streams []incregraph.Stream) (incregraph.EngineStats, [][]incregraph.VertexValue) {
	t.Helper()
	if traced {
		tr := NewTracer(1)
		pulls := tr.NewCallTracer("stream.next", 7, 1, -1)
		cbs := tr.NewCallTracer("algo.callback", 7, 1, -1)
		var err error
		if streams, err = traceStreams(streams, pulls); err != nil {
			t.Fatal(err)
		}
		for i, p := range progs {
			if progs[i], err = traceProgram(p, cbs); err != nil {
				t.Fatal(err)
			}
		}
		defer func() {
			if pulls.Calls() == 0 || cbs.Calls() == 0 {
				t.Errorf("wrappers recorded %d pulls and %d callbacks", pulls.Calls(), cbs.Calls())
			}
		}()
	}
	g := incregraph.New(incregraph.Config{Ranks: 1, WeightPolicy: incregraph.KeepMinWeight}, progs...)
	for _, in := range inits {
		g.InitVertex(in.algo, in.v)
	}
	if _, err := g.Run(streams...); err != nil {
		t.Fatal(err)
	}
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	out := make([][]incregraph.VertexValue, len(progs))
	for a := range progs {
		out[a] = g.Collect(a)
	}
	return g.Stats(), out
}

// TestWrappersAreTransparent runs the bulk and churn jobs at one rank with
// and without the tracing wrappers: a decorator that hid Combiner or
// WitnessProgram would change the merge or invalidation counts.
func TestWrappersAreTransparent(t *testing.T) {
	edges := rmatEdges(9, 3)
	src := maxDegreeVertex(edges)
	events := gen.Churn(rmatEdges(8, 3), churnDelete, 3)
	cases := []struct {
		name    string
		progs   func() []incregraph.Program
		inits   []initVertex
		streams func() []incregraph.Stream
		oracles []oracle
		deletes bool
	}{
		{
			name: "bulk",
			progs: func() []incregraph.Program {
				return []incregraph.Program{incregraph.BFS(), incregraph.SSSP(), incregraph.CC()}
			},
			inits:   []initVertex{{0, src}, {1, src}},
			streams: func() []incregraph.Stream { return incregraph.SplitEdges(edges, 1) },
			oracles: staticOracles(edges, edges, []string{"bfs", "sssp", "cc"}, src),
		},
		{
			name:    "churn",
			progs:   func() []incregraph.Program { return []incregraph.Program{incregraph.CC()} },
			streams: func() []incregraph.Stream { return incregraph.SplitEventsByPair(events, 1) },
			oracles: staticOracles(survivors(events), rmatEdges(8, 3), []string{"cc"}, 0),
			deletes: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain, plainVals := ingestOnce(t, false, tc.progs(), tc.inits, tc.streams())
			traced, tracedVals := ingestOnce(t, true, tc.progs(), tc.inits, tc.streams())
			if plain.Events != traced.Events {
				t.Errorf("events differ: untraced %+v, traced %+v", plain.Events, traced.Events)
			}
			if plain.CombinedAway != traced.CombinedAway {
				t.Errorf("CombinedAway differs: untraced %d, traced %d", plain.CombinedAway, traced.CombinedAway)
			}
			if plain.CombinedAway == 0 {
				t.Error("no updates were combined, so the test cannot see a hidden Combiner")
			}
			if tc.deletes && plain.Events.Invalidates == 0 {
				t.Error("no invalidations, so the test cannot see a hidden WitnessProgram")
			}
			for a, o := range tc.oracles {
				if bad := o.mismatches(plainVals[a]); bad != 0 {
					t.Errorf("program %d untraced: %d vertices disagree with the oracle", a, bad)
				}
				if bad := o.mismatches(tracedVals[a]); bad != 0 {
					t.Errorf("program %d traced: %d vertices disagree with the oracle", a, bad)
				}
			}
		})
	}
}

// TestDecoratorForwardsExactInterfaces checks the decorator's interface
// set against the wrapped program's for every program the library offers.
func TestDecoratorForwardsExactInterfaces(t *testing.T) {
	tr := NewTracer(1)
	calls := tr.NewCallTracer("algo.callback", 1, 1, -1)
	progs := []incregraph.Program{
		incregraph.BFS(), incregraph.SSSP(), incregraph.CC(), incregraph.WidestPath(),
		incregraph.MultiST([]incregraph.VertexID{1, 2}), incregraph.DegreeTracker(), incregraph.GenBFS(),
	}
	for _, p := range progs {
		want := optionalInterfaces(p)
		d, err := traceProgram(p, calls)
		if err != nil {
			// Refusing is allowed; forwarding the wrong set is not.
			t.Logf("%T: %v", p, err)
			continue
		}
		if got := optionalInterfaces(d); got != want {
			t.Errorf("%T: decorator implements %s, program %s", p, interfaceNames(got), interfaceNames(want))
		}
	}
	for _, p := range progs[:3] {
		if _, err := traceProgram(p, calls); err != nil {
			t.Errorf("%T: the benchmark's programs must be decoratable: %v", p, err)
		}
	}
}

// deleteOnly implements DeleteAware and nothing else optional.
type deleteOnly struct{ core.Program }

func (deleteOnly) OnDelete(*core.Ctx, graph.VertexID, graph.Weight)                {}
func (deleteOnly) OnReverseDelete(*core.Ctx, graph.VertexID, uint64, graph.Weight) {}

func TestDecoratorRefusesUnknownSets(t *testing.T) {
	tr := NewTracer(1)
	calls := tr.NewCallTracer("algo.callback", 1, 1, -1)
	if _, err := traceProgram(deleteOnly{incregraph.CC()}, calls); err == nil {
		t.Fatal("a DeleteAware program was decorated without forwarding DeleteAware")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past the root
		{Name: "d", Start: 25, End: 35, Parent: 2},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20, 30 - 10, 30, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSampledSelfTimeIsScaled(t *testing.T) {
	tr := NewTracer(1)
	c := tr.NewCallTracer("x", 4, 1, -1)
	for i := 0; i < 40; i++ {
		c.end(0, c.begin(0))
	}
	c.Flush()
	self, calls := tr.SelfByName()
	if calls["x"] != 40 {
		t.Fatalf("calls %d, want 40", calls["x"])
	}
	if len(tr.spans) != 10 {
		t.Fatalf("%d spans recorded, want 10", len(tr.spans))
	}
	var sum int64
	for _, s := range tr.spans {
		sum += s.End - s.Start
	}
	if int64(self["x"]) != sum*4 {
		t.Errorf("self %d, want 4x the sampled %d", self["x"], sum)
	}
}

// TestBenchmarkFileMatchesMetrics keeps BENCHMARK.json and the metric
// tables the program prints from in step.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(listed), len(defs))
		}
		units := map[string]string{}
		for _, d := range defs {
			units[d.name] = d.unit
		}
		for _, m := range listed {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s [%s] is not printed with that unit (program: %q)", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, layerMetrics)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no run function", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
}
