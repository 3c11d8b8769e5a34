package main

import (
	"fmt"
	"strings"

	"incregraph"
	"incregraph/internal/core"
	"incregraph/internal/graph"
	"incregraph/internal/stream"
)

// tracedStream times the engine's pulls from one rank's stream.
type tracedStream struct {
	inner incregraph.Stream
	calls *CallTracer
	lane  int
}

func (s *tracedStream) Next() (graph.EdgeEvent, bool) {
	t := s.calls.begin(s.lane)
	ev, ok := s.inner.Next()
	s.calls.end(s.lane, t)
	return ev, ok
}

// traceStreams wraps stream i to record on lane i (stream i feeds rank i).
// A live stream is refused: the wrapper would hide its non-blocking poll
// and change how the engine waits for input.
func traceStreams(streams []incregraph.Stream, calls *CallTracer) ([]incregraph.Stream, error) {
	out := make([]incregraph.Stream, len(streams))
	for i, s := range streams {
		if _, live := s.(stream.Live); live {
			return nil, fmt.Errorf("stream %d is live; the pull wrapper only wraps pull streams", i)
		}
		out[i] = &tracedStream{inner: s, calls: calls, lane: i}
	}
	return out, nil
}

// gatedStream blocks its first pull until gate is closed, so a cluster's
// mesh can form before the timed window opens.
type gatedStream struct {
	inner incregraph.Stream
	gate  <-chan struct{}
	open  bool
}

func (s *gatedStream) Next() (graph.EdgeEvent, bool) {
	if !s.open {
		<-s.gate
		s.open = true
	}
	return s.inner.Next()
}

// tracedProgram times a program's callbacks on the rank that runs them.
type tracedProgram struct {
	inner core.Program
	calls *CallTracer
}

func (p *tracedProgram) Init(ctx *core.Ctx) {
	t := p.calls.begin(ctx.Rank())
	p.inner.Init(ctx)
	p.calls.end(ctx.Rank(), t)
}

func (p *tracedProgram) OnAdd(ctx *core.Ctx, nbr graph.VertexID, w graph.Weight) {
	t := p.calls.begin(ctx.Rank())
	p.inner.OnAdd(ctx, nbr, w)
	p.calls.end(ctx.Rank(), t)
}

func (p *tracedProgram) OnReverseAdd(ctx *core.Ctx, nbr graph.VertexID, nbrVal uint64, w graph.Weight) {
	t := p.calls.begin(ctx.Rank())
	p.inner.OnReverseAdd(ctx, nbr, nbrVal, w)
	p.calls.end(ctx.Rank(), t)
}

func (p *tracedProgram) OnUpdate(ctx *core.Ctx, from graph.VertexID, fromVal uint64, w graph.Weight) {
	t := p.calls.begin(ctx.Rank())
	p.inner.OnUpdate(ctx, from, fromVal, w)
	p.calls.end(ctx.Rank(), t)
}

// The forwarders below each carry one optional interface of the wrapped
// program; traceProgram composes exactly the ones it implements.

type namedFwd struct{ n core.Named }

func (f namedFwd) Name() string { return f.n.Name() }

type combinerFwd struct{ c core.Combiner }

func (f combinerFwd) Combine(old, new uint64) uint64 { return f.c.Combine(old, new) }

type witnessFwd struct {
	w     core.WitnessProgram
	calls *CallTracer
}

func (f witnessFwd) WitnessLanes() int { return f.w.WitnessLanes() }

func (f witnessFwd) ChangedLanes(before, after uint64) uint64 {
	return f.w.ChangedLanes(before, after)
}

func (f witnessFwd) Reseed(ctx *core.Ctx, lanes uint64) {
	t := f.calls.begin(ctx.Rank())
	f.w.Reseed(ctx, lanes)
	f.calls.end(ctx.Rank(), t)
}

// Optional interfaces the engine type-asserts on a program.
const (
	ifNamed = 1 << iota
	ifCombiner
	ifWitness
	ifDeleteAware
	ifSignalAware
)

// optionalInterfaces returns the set of optional interfaces p implements.
func optionalInterfaces(p core.Program) int {
	var set int
	if _, ok := p.(core.Named); ok {
		set |= ifNamed
	}
	if _, ok := p.(core.Combiner); ok {
		set |= ifCombiner
	}
	if _, ok := p.(core.WitnessProgram); ok {
		set |= ifWitness
	}
	if _, ok := p.(core.DeleteAware); ok {
		set |= ifDeleteAware
	}
	if _, ok := p.(core.SignalAware); ok {
		set |= ifSignalAware
	}
	return set
}

func interfaceNames(set int) string {
	var names []string
	for i, n := range []string{"Named", "Combiner", "WitnessProgram", "DeleteAware", "SignalAware"} {
		if set&(1<<i) != 0 {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return "none"
	}
	return strings.Join(names, "+")
}

// traceProgram decorates p so that its callbacks record on calls (lane =
// the rank running the callback). The engine switches coalescing and
// deletions on by type-asserting optional interfaces, so the decorator must
// implement exactly the ones p does; it refuses an interface set it has no
// exact decorator for rather than hide one.
func traceProgram(p core.Program, calls *CallTracer) (core.Program, error) {
	base := &tracedProgram{inner: p, calls: calls}
	set := optionalInterfaces(p)
	switch set {
	case 0:
		return base, nil
	case ifNamed:
		return struct {
			*tracedProgram
			namedFwd
		}{base, namedFwd{p.(core.Named)}}, nil
	case ifNamed | ifCombiner:
		return struct {
			*tracedProgram
			namedFwd
			combinerFwd
		}{base, namedFwd{p.(core.Named)}, combinerFwd{p.(core.Combiner)}}, nil
	case ifNamed | ifCombiner | ifWitness:
		return struct {
			*tracedProgram
			namedFwd
			combinerFwd
			witnessFwd
		}{base, namedFwd{p.(core.Named)}, combinerFwd{p.(core.Combiner)},
			witnessFwd{p.(core.WitnessProgram), calls}}, nil
	}
	return nil, fmt.Errorf("no exact decorator for a program implementing %s", interfaceNames(set))
}
