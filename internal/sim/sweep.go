package sim

import (
	"fmt"
	"strconv"
	"strings"
)

// SweepFailure records one failing run of a seed sweep, with enough to
// reproduce it exactly.
type SweepFailure struct {
	Cfg    Config
	Result Result
}

// Repro renders the failure as the replay string accepted by ParseReplay
// (and by the SIM_REPLAY environment variable of TestSimReplay) — the
// line to copy out of a CI failing-seeds artifact.
func (f SweepFailure) Repro() string {
	coal, srv := "on", "off"
	if f.Cfg.NoCoalesce {
		coal = "off"
	}
	if f.Cfg.Serve {
		srv = "on"
	}
	line := fmt.Sprintf("algo=%s,graph=%d,sched=%d,ranks=%d,coalesce=%s,serve=%s",
		f.Cfg.Algo, f.Cfg.GraphSeed, f.Cfg.ScheduleSeed, f.Cfg.Ranks, coal, srv)
	if f.Cfg.Deletes > 0 {
		// Appended only for churn runs, so pre-churn tooling keeps parsing
		// the lines it already knows.
		line += fmt.Sprintf(",deletes=%d", f.Cfg.Deletes)
	}
	if f.Cfg.BatchSize > 0 {
		line += fmt.Sprintf(",batch=%d", f.Cfg.BatchSize)
	}
	return line
}

// String summarizes the failure: the replay line plus the first
// violation.
func (f SweepFailure) String() string {
	first := "(no violation text)"
	if len(f.Result.Violations) > 0 {
		first = f.Result.Violations[0]
	}
	return f.Repro() + ": " + first
}

// ParseReplay parses a Repro string back into a runnable Config.
func ParseReplay(s string) (Config, error) {
	cfg := Config{}
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return Config{}, fmt.Errorf("sim: bad replay field %q (want key=value)", kv)
		}
		switch k {
		case "algo":
			a, err := ParseAlgo(v)
			if err != nil {
				return Config{}, err
			}
			cfg.Algo = a
		case "graph":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return Config{}, fmt.Errorf("sim: bad graph seed %q", v)
			}
			cfg.GraphSeed = n
		case "sched":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return Config{}, fmt.Errorf("sim: bad schedule seed %q", v)
			}
			cfg.ScheduleSeed = n
		case "ranks":
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return Config{}, fmt.Errorf("sim: bad rank count %q", v)
			}
			cfg.Ranks = n
		case "coalesce":
			switch v {
			case "on":
				cfg.NoCoalesce = false
			case "off":
				cfg.NoCoalesce = true
			default:
				return Config{}, fmt.Errorf("sim: bad coalesce %q (want on/off)", v)
			}
		case "serve":
			switch v {
			case "on":
				cfg.Serve = true
			case "off":
				cfg.Serve = false
			default:
				return Config{}, fmt.Errorf("sim: bad serve %q (want on/off)", v)
			}
		case "deletes":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return Config{}, fmt.Errorf("sim: bad delete budget %q", v)
			}
			cfg.Deletes = n
		case "batch":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return Config{}, fmt.Errorf("sim: bad batch size %q", v)
			}
			cfg.BatchSize = n
		default:
			return Config{}, fmt.Errorf("sim: unknown replay key %q", k)
		}
	}
	return cfg, nil
}

// sweepSmallBatch is the outbound batch size of the sweep's small-batch
// seeds.
const sweepSmallBatch = 2

// Sweep runs seeds × all algorithms × coalescing on/off × churn off/on,
// rotating the rank count with the seed, and returns every failing run.
// Every third seed shrinks the outbound batch to sweepSmallBatch events, so
// buffers fill and flush in the middle of a callback's emissions.
// Every run serves the MVCC read plane, so the sweep validates lock-free
// reads against the static oracle across the full matrix; the churn cells
// additionally stream live deletions (and occasional re-adds) and check
// the converged state against the post-delete recompute. progress (if
// non-nil) is called after each run with (done, total).
func Sweep(seeds int, progress func(done, total int)) []SweepFailure {
	var failures []SweepFailure
	total := seeds * int(numAlgos) * 2 * 2
	done := 0
	for seed := 0; seed < seeds; seed++ {
		for a := Algo(0); a < numAlgos; a++ {
			for _, noCoal := range []bool{false, true} {
				for _, deletes := range []int{0, 3 + seed%6} {
					batch := 0
					if seed%3 == 2 {
						batch = sweepSmallBatch
					}
					cfg := Config{
						Algo:         a,
						GraphSeed:    int64(seed),
						ScheduleSeed: int64(seed)*7919 + int64(a)*31 + int64(deletes)*977 + 1,
						Ranks:        1 + seed%4,
						NoCoalesce:   noCoal,
						Serve:        true,
						Deletes:      deletes,
						BatchSize:    batch,
					}
					if res := Run(cfg); res.Failed() {
						failures = append(failures, SweepFailure{Cfg: cfg, Result: res})
					}
					done++
					if progress != nil {
						progress(done, total)
					}
				}
			}
		}
	}
	return failures
}
