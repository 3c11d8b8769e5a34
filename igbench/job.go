package main

import (
	"fmt"
	"os"
	"time"
)

// job is what one repetition of a workload measured.
type job struct {
	traced bool
	// setups are the times from New/NewCluster until the timed window
	// opens: the job's own, then any extra set-ups timed alone.
	setups []time.Duration
	// wall is the timed ingest: Run until quiescence, or the live burst
	// window; busy is the part of it the load generator spent waiting on
	// the engine (equal to wall for saturation jobs).
	wall, busy time.Duration
	// topo counts the topology events ingested in the window.
	topo uint64
	// updates holds update latencies: per burst for live, and the whole
	// job for saturation, where every event is due when Run starts.
	updates []time.Duration
	// reads holds the wall time of each 512-id read call; readIDs counts
	// the vertices those calls returned over readWall.
	reads    []time.Duration
	readIDs  uint64
	readWall time.Duration
	// heapPeak is the sampled peak of heap objects in the window;
	// liveBytesPerEdge is the collected heap the engine still holds after
	// quiescence, over its stored adjacency entries.
	heapPeak         uint64
	liveBytesPerEdge float64
	// layer holds the per-layer figures of a traced job.
	layer map[string]float64
}

// tally accumulates operations and failures over a run.
type tally struct {
	attempted, failed int64
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		fmt.Fprintf(os.Stderr, "igbench: FAIL "+format+"\n", args...)
	}
}

// fail records n failed operations out of n attempted.
func (t *tally) fail(n int, format string, args ...any) {
	t.attempted += int64(n)
	t.failed += int64(n)
	fmt.Fprintf(os.Stderr, "igbench: FAIL "+format+"\n", args...)
}

// ok records n operations that succeeded.
func (t *tally) ok(n int) { t.attempted += int64(n) }

// endToEnd folds the untraced jobs into the end-to-end metrics: each
// percentile is taken within a job, and every figure is the median over
// jobs, so one disturbed job does not set the run's tail.
func endToEnd(jobs []job) map[string]float64 {
	fig := map[string][]float64{}
	add := func(name string, v float64) { fig[name] = append(fig[name], v) }
	var setups []float64
	for _, j := range jobs {
		if j.traced {
			continue
		}
		add("ingest_eps", float64(j.topo)/j.wall.Seconds())
		add("update_p50_ms", ms(quantile(j.updates, 0.50)))
		add("read_p50_us", us(quantile(j.reads, 0.50)))
		add("read_p99_us", us(quantile(j.reads, 0.99)))
		add("reads_per_s", float64(j.readIDs)/j.readWall.Seconds())
		add("heap_peak_mb", float64(j.heapPeak)/(1<<20))
		add("heap_live_b_per_edge", j.liveBytesPerEdge)
		for _, d := range j.setups {
			setups = append(setups, d.Seconds())
		}
	}
	out := map[string]float64{"setup_s": median(setups)}
	for name, vs := range fig {
		out[name] = median(vs)
	}
	return out
}

// perLayer folds the traced jobs' figures (median per figure), overlays the
// run-level figures and adds the tracing overhead: median traced busy time
// over median untraced, minus 1.
func perLayer(jobs []job, run map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	var traced, plain []float64
	for _, j := range jobs {
		if !j.traced {
			plain = append(plain, j.busy.Seconds())
			continue
		}
		traced = append(traced, j.busy.Seconds())
		for k, v := range j.layer {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]float64{}
	for _, name := range layerNames {
		out[name] = median(vals[name])
	}
	for name, v := range run {
		out[name] = v
	}
	out["trace.overhead_frac"] = ratio(median(traced), median(plain)) - 1
	return out
}

// logJob writes one line per job to standard error, so the spread within a
// run can be read beside its result.
func logJob(kind string, j job) {
	fmt.Fprintf(os.Stderr, "igbench: %s job traced=%v setup=%v wall=%v topo=%d update_p50=%v update_p99=%v read_p50=%v\n",
		kind, j.traced, quantile(j.setups, 0.5), j.wall, j.topo,
		quantile(j.updates, 0.5), quantile(j.updates, 0.99), quantile(j.reads, 0.5))
}
