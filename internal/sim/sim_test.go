package sim

import (
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestSimSmoke runs one seed pair per algorithm, with and without
// coalescing, and demands a clean run — the fast always-on version of the
// sweep.
func TestSimSmoke(t *testing.T) {
	for a := Algo(0); a < numAlgos; a++ {
		for _, noCoal := range []bool{false, true} {
			cfg := Config{Algo: a, GraphSeed: 11, ScheduleSeed: 17, Ranks: 3, NoCoalesce: noCoal, Serve: true}
			res := Run(cfg)
			if res.Failed() {
				t.Errorf("%s coalesce=%v: %d violations, first: %s",
					a, !noCoal, len(res.Violations), res.Violations[0])
			}
			if res.EventsProcessed == 0 {
				t.Errorf("%s coalesce=%v: run processed no events", a, !noCoal)
			}
			if res.SnapshotsChecked == 0 {
				t.Errorf("%s coalesce=%v: run checked no snapshots", a, !noCoal)
			}
			if res.CheckpointsChecked == 0 {
				t.Errorf("%s coalesce=%v: run checked no checkpoints", a, !noCoal)
			}
			if res.ServeReads == 0 || res.ServePublishes == 0 {
				t.Errorf("%s coalesce=%v: serve checking was vacuous (%d reads, %d publishes)",
					a, !noCoal, res.ServeReads, res.ServePublishes)
			}
			if res.Compactions == 0 {
				t.Errorf("%s coalesce=%v: compaction checking was vacuous (0 compactions)", a, !noCoal)
			}
		}
	}
}

// TestSimChurnSmoke runs one delete-enabled seed pair per algorithm, with
// and without coalescing: live deletions (and re-adds) must leave the
// engine exactly at the static recompute of the surviving edge multiset,
// and the runs must not be vacuous — deletes must actually stream.
func TestSimChurnSmoke(t *testing.T) {
	for a := Algo(0); a < numAlgos; a++ {
		for _, noCoal := range []bool{false, true} {
			cfg := Config{Algo: a, GraphSeed: 11, ScheduleSeed: 17, Ranks: 3, NoCoalesce: noCoal, Serve: true, Deletes: 6}
			res := Run(cfg)
			if res.Failed() {
				t.Errorf("%s coalesce=%v: %d violations, first: %s",
					a, !noCoal, len(res.Violations), res.Violations[0])
			}
			if res.Deletes == 0 {
				t.Errorf("%s coalesce=%v: churn run streamed no deletes (vacuous)", a, !noCoal)
			}
			if res.CheckpointsChecked == 0 {
				t.Errorf("%s coalesce=%v: no checkpoint round-trip (witness state untested)", a, !noCoal)
			}
		}
	}
}

// TestSimChurnDeterminism: a delete-enabled run must still be exactly
// reproducible from its seed pair (the churn choices are scheduler-owned).
func TestSimChurnDeterminism(t *testing.T) {
	cfg := Config{Algo: SSSP, GraphSeed: 42, ScheduleSeed: 7, Ranks: 2, Serve: true, Deletes: 5}
	first := Run(cfg)
	if first.Failed() {
		t.Fatalf("base churn run failed: %s", first.Violations[0])
	}
	if again := Run(cfg); !reflect.DeepEqual(first, again) {
		t.Error("identical seeds produced different churn results")
	}
}

// TestSimSweep is the seeded schedule-exploration sweep: every seed ×
// algorithm × coalescing combination must converge to the static oracle
// with all invariants intact. SIM_SWEEP_SEEDS widens it in CI (200);
// failing runs are written to SIM_SWEEP_OUT as replayable seed lines.
func TestSimSweep(t *testing.T) {
	seeds := 6
	if env := os.Getenv("SIM_SWEEP_SEEDS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n < 1 {
			t.Fatalf("bad SIM_SWEEP_SEEDS %q", env)
		}
		seeds = n
	} else if testing.Short() {
		seeds = 3
	}
	failures := Sweep(seeds, nil)
	if len(failures) == 0 {
		t.Logf("sweep clean: %d seeds × %d algorithms × coalescing on/off", seeds, numAlgos)
		return
	}
	if out := os.Getenv("SIM_SWEEP_OUT"); out != "" {
		var sb strings.Builder
		for _, f := range failures {
			sb.WriteString(f.Repro())
			sb.WriteByte('\n')
			for _, v := range f.Result.Violations {
				sb.WriteString("  ")
				sb.WriteString(v)
				sb.WriteByte('\n')
			}
		}
		if err := os.WriteFile(out, []byte(sb.String()), 0o644); err != nil {
			t.Errorf("writing %s: %v", out, err)
		}
	}
	for i, f := range failures {
		if i >= 5 {
			t.Errorf("... and %d more failing runs", len(failures)-i)
			break
		}
		t.Errorf("failing run %s", f)
	}
}

// TestSimDeterminism: the same (graph seed, schedule seed) pair must
// reproduce the run bit-for-bit, and different schedule seeds over the
// same graph must still converge to the same final state — the REMO
// schedule-independence claim.
func TestSimDeterminism(t *testing.T) {
	for a := Algo(0); a < numAlgos; a++ {
		base := Config{Algo: a, GraphSeed: 42, ScheduleSeed: 1, Ranks: 2}
		first := Run(base)
		if first.Failed() {
			t.Fatalf("%s: base run failed: %s", a, first.Violations[0])
		}
		if again := Run(base); !reflect.DeepEqual(first, again) {
			t.Errorf("%s: identical seeds produced different results", a)
		}
		for sched := int64(2); sched <= 5; sched++ {
			cfg := base
			cfg.ScheduleSeed = sched
			other := Run(cfg)
			if other.Failed() {
				t.Fatalf("%s sched=%d: %s", a, sched, other.Violations[0])
			}
			if !reflect.DeepEqual(first.Final, other.Final) {
				t.Errorf("%s: schedule seed %d converged to a different state than seed 1", a, sched)
			}
		}
	}
}

// TestSimReplay replays one failing seed line from a CI artifact:
//
//	SIM_REPLAY="algo=bfs,graph=3,sched=7,ranks=2,coalesce=on" go test ./internal/sim -run TestSimReplay -v
func TestSimReplay(t *testing.T) {
	line := os.Getenv("SIM_REPLAY")
	if line == "" {
		t.Skip("set SIM_REPLAY to a seed line from the sweep artifact")
	}
	cfg, err := ParseReplay(line)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(cfg)
	t.Logf("replay %s: %d steps, %d events, %d merges", line, res.Steps, res.EventsProcessed, res.Merges)
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
}

// mutationCaught runs up to seeds mutated runs and reports how many runs
// failed, how many recorded a violation matching want, and the total
// merges observed (the vacuity guard for combine mutations).
func mutationCaught(t *testing.T, mut Mutation, want string, seeds int, tweak func(*Config), observe ...func(Result)) (failed, matched, merges int) {
	t.Helper()
	for s := 0; s < seeds; s++ {
		cfg := Config{
			Algo: BFS, GraphSeed: int64(s), ScheduleSeed: int64(s) + 100,
			Ranks: 2, Mutation: mut,
		}
		if tweak != nil {
			tweak(&cfg)
		}
		res := Run(cfg)
		merges += res.Merges
		for _, ob := range observe {
			ob(res)
		}
		if res.Failed() {
			failed++
		}
		for _, v := range res.Violations {
			if strings.HasPrefix(v, want) {
				matched++
				break
			}
		}
	}
	return failed, matched, merges
}

// TestMutationFIFOCaught proves the FIFO invariant checker has teeth: an
// engine that silently reorders flushed batches must be caught within a
// bounded seed budget.
func TestMutationFIFOCaught(t *testing.T) {
	_, matched, _ := mutationCaught(t, MutateFIFO, "fifo:", 25, nil)
	if matched == 0 {
		t.Fatal("FIFO-breaking mutation survived 25 seeds undetected")
	}
	t.Logf("FIFO mutation caught in %d of 25 seeds", matched)
}

// TestMutationCombineCaught proves the merge checker has teeth: a
// coalescer that keeps the less-converged value must be caught within a
// bounded seed budget, and the check must not pass vacuously (merges must
// actually happen).
func TestMutationCombineCaught(t *testing.T) {
	failed, matched, merges := mutationCaught(t, MutateCombine, "combine:", 25, func(c *Config) {
		c.MaxWeight = 1 // denser value collisions → more merge opportunities
	})
	if merges == 0 {
		t.Fatal("no coalescer merges happened across 25 seeds — combine mutation test is vacuous")
	}
	if matched == 0 && failed == 0 {
		t.Fatalf("combine-breaking mutation survived 25 seeds undetected (%d merges observed)", merges)
	}
	t.Logf("combine mutation: %d of 25 seeds failed (%d with merge-check violations), %d merges", failed, matched, merges)
}

// TestMutationSkipInvalidateCaught proves the post-delete differential
// oracle has teeth: an engine that removes edges without invalidating the
// values they witnessed must be caught within a bounded seed budget, and
// the runs must actually stream deletes (vacuity guard).
func TestMutationSkipInvalidateCaught(t *testing.T) {
	deletes := 0
	failed, matched, _ := mutationCaught(t, MutateSkipInvalidate, "final:", 25, func(c *Config) {
		c.Deletes = 6
	}, func(r Result) { deletes += r.Deletes })
	if deletes == 0 {
		t.Fatal("no deletes streamed across 25 seeds — skip-invalidate mutation test is vacuous")
	}
	if matched == 0 {
		t.Fatalf("skip-invalidate mutation survived 25 seeds undetected (%d runs failed, %d deletes streamed)",
			failed, deletes)
	}
	t.Logf("skip-invalidate mutation caught in %d of 25 seeds (%d deletes streamed)", matched, deletes)
}

// TestSimStaleIncarnationWeight replays the sweep runs that caught an
// UPDATE applied over the weight of a dead edge incarnation: a vertex
// offered its value over an edge whose pair was deleted and re-added with
// a different weight before the UPDATE arrived. The receiver found the
// pair present again and accepted the value over the old, better weight,
// ending below the oracle (SSSP) or above it (widest path). The receiver
// now applies the value over its local weight.
func TestSimStaleIncarnationWeight(t *testing.T) {
	for _, line := range []string{
		"algo=widest,graph=845,sched=6699496,ranks=2,coalesce=on,serve=on,deletes=8",
		"algo=widest,graph=845,sched=6699496,ranks=2,coalesce=off,serve=on,deletes=8",
		"algo=sssp,graph=931,sched=7376529,ranks=4,coalesce=on,serve=on,deletes=4",
		"algo=sssp,graph=931,sched=7376529,ranks=4,coalesce=off,serve=on,deletes=4",
	} {
		cfg, err := ParseReplay(line)
		if err != nil {
			t.Fatal(err)
		}
		res := Run(cfg)
		if res.Deletes == 0 {
			t.Errorf("%s: no deletes streamed", line)
		}
		for _, v := range res.Violations {
			t.Errorf("%s: %s", line, v)
		}
	}
}

// TestParseReplayRoundTrip pins the artifact line format.
func TestParseReplayRoundTrip(t *testing.T) {
	f := SweepFailure{Cfg: Config{Algo: Widest, GraphSeed: 3, ScheduleSeed: 7, Ranks: 4, NoCoalesce: true, Serve: true}}
	line := f.Repro()
	cfg, err := ParseReplay(line)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Algo != Widest || cfg.GraphSeed != 3 || cfg.ScheduleSeed != 7 || cfg.Ranks != 4 || !cfg.NoCoalesce || !cfg.Serve {
		t.Fatalf("round trip lost fields: %q → %+v", line, cfg)
	}
	if cfg.Deletes != 0 || strings.Contains(line, "deletes") {
		t.Fatalf("add-only line should not carry a deletes field: %q → %+v", line, cfg)
	}
	churn := SweepFailure{Cfg: Config{Algo: CC, GraphSeed: 5, ScheduleSeed: 9, Ranks: 2, Serve: true, Deletes: 7}}
	got, err := ParseReplay(churn.Repro())
	if err != nil {
		t.Fatal(err)
	}
	if got.Deletes != 7 || got.Algo != CC {
		t.Fatalf("churn round trip lost fields: %q → %+v", churn.Repro(), got)
	}
	small := SweepFailure{Cfg: Config{Algo: BFS, GraphSeed: 2, ScheduleSeed: 3, Ranks: 3, BatchSize: 2}}
	if got, err := ParseReplay(small.Repro()); err != nil || got.BatchSize != 2 || got.Ranks != 3 {
		t.Fatalf("batch round trip: %q → (%+v, %v)", small.Repro(), got, err)
	}
	// Pre-serve seed lines (no serve= field) must stay parseable.
	if old, err := ParseReplay("algo=bfs,graph=1,sched=2,ranks=2,coalesce=on"); err != nil || old.Serve {
		t.Fatalf("legacy line: (%+v, %v)", old, err)
	}
	if _, err := ParseReplay("deletes=-1"); err == nil {
		t.Error("negative delete budget accepted")
	}
	if _, err := ParseReplay("algo=nope"); err == nil {
		t.Error("bad algo accepted")
	}
	if _, err := ParseReplay("ranks=zero"); err == nil {
		t.Error("bad rank count accepted")
	}
	if _, err := ParseReplay("bogus"); err == nil {
		t.Error("field without '=' accepted")
	}
}

// TestAlgoNames pins the String/ParseAlgo pair for every algorithm.
func TestAlgoNames(t *testing.T) {
	for a := Algo(0); a < numAlgos; a++ {
		back, err := ParseAlgo(a.String())
		if err != nil || back != a {
			t.Errorf("algo %d: String/Parse round trip gave (%v, %v)", a, back, err)
		}
	}
}
