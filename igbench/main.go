// Command igbench is the repository benchmark: four seeded workloads that
// drive the engine through the public incregraph API and the exported
// functions of its layer packages, check every answer against the static
// oracles, and print end-to-end metrics (untraced) or per-layer metrics
// (traced) as the last line of standard output.
//
//	igbench --workload bulk --seed 1 --seconds 10 --trace 0
//	igbench compare a.json b.json
//
// Run it through run.sh from the repository root, which builds it first.
// README.md in this directory lists the workloads, the metrics and the
// layer metric each end-to-end metric is traced to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// outDir holds result records and traces, inside the build directory that
// run.sh uses.
const outDir = ".bench_build/igbench"

// metricDef names one metric and its unit. README.md maps each per-layer
// metric to the end-to-end metric it should move, and on which workloads.
type metricDef struct {
	name, unit string
}

var endToEndMetrics = []metricDef{
	{name: "ingest_eps", unit: "ev/s"},
	{name: "update_p50_ms", unit: "ms"},
	{name: "read_p50_us", unit: "us"},
	{name: "read_p99_us", unit: "us"},
	{name: "reads_per_s", unit: "lookups/s"},
	{name: "setup_s", unit: "s"},
	{name: "heap_peak_mb", unit: "MB"},
	{name: "heap_live_b_per_edge", unit: "B"},
}

var layerMetrics = []metricDef{
	{"stream.pulls", "count"},
	{"stream.pull_self_ms", "ms"},
	{"stream.lag_max", "count"},
	{"graph.add_ns_per_edge", "ns"},
	{"graph.scan_ns_per_edge", "ns"},
	{"graph.bytes_per_edge", "B"},
	{"graph.delete_ns_per_edge", "ns"},
	{"graph.compactions", "count"},
	{"graph.delta_hit_rate", "ratio"},
	{"algo.callbacks_per_topo", "ratio"},
	{"algo.callback_self_ms", "ms"},
	{"algo.busy_share", "ratio"},
	{"core.algo_events_per_topo", "ratio"},
	{"core.self_delivered_frac", "ratio"},
	{"core.ev_per_flush", "ratio"},
	{"core.combined_away_frac", "ratio"},
	{"core.mailbox_hwm", "count"},
	{"core.inv_per_delete", "ratio"},
	{"core.deletes", "count"},
	{"core.drain_wait_ms", "ms"},
	{"core.drain_p99_ms", "ms"},
	{"serve.read_ns_per_id", "ns"},
	{"serve.staleness_epochs", "epochs"},
	{"serve.publishes_per_s", "1/s"},
	{"serve.epochs", "count"},
	{"transport.bytes_per_event", "B"},
	{"transport.ev_per_frame", "ratio"},
	{"transport.frames", "count"},
	{"transport.ack_rtt_p50_us", "us"},
	{"gen.late_p99_ms", "ms"},
	{"gen.late_max_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// layerNames lists the per-layer metrics a traced job may fill.
var layerNames = func() []string {
	var out []string
	for _, m := range layerMetrics {
		out = append(out, m.name)
	}
	return out
}()

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(r *runner) []job{
	"bulk":    runBulk,
	"churn":   runChurn,
	"live":    runLive,
	"cluster": runCluster,
}

// runner carries one workload run's settings and accumulators.
type runner struct {
	seed    int64
	seconds time.Duration
	trace   bool
	tr      *Tracer // non-nil on a traced run
	root    int32
	tally   tally
	// layer holds per-layer figures measured over the whole run rather
	// than per job.
	layer map[string]float64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the full result kept on disk for the compare step.
type record struct {
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Seconds     int         `json:"seconds"`
	Trace       bool        `json:"trace"`
	Fingerprint fingerprint `json:"fingerprint"`
	Result      result      `json:"result"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	workload := flag.String("workload", "bulk", "workload: bulk, churn, live or cluster")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "seconds of timed work per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "igbench: bad arguments (workload %q, seconds %d, trace %d)\n",
			*workload, *seconds, *trace)
		os.Exit(2)
	}
	// A run that hangs must fail without a result rather than be killed
	// after printing a partial one.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "igbench: run exceeded 170s")
		os.Exit(3)
	})
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "igbench:", err)
		os.Exit(1)
	}
	fp := takeFingerprint(*seed)
	r := &runner{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	runID := uint64(*seed)<<8 | uint64(len(*workload))<<1 | uint64(*trace)
	if r.trace {
		r.tr = NewTracer(runID)
		r.root = r.tr.Begin("run."+*workload, -1)
	}
	jobs := run(r)

	defs, vals := endToEndMetrics, map[string]float64{}
	if r.trace {
		r.tr.End(r.root)
		defs, vals = layerMetrics, perLayer(jobs, r.layer)
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", *workload, *seed))
		if err := r.tr.WriteFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "igbench:", err)
			os.Exit(1)
		}
	} else {
		vals = endToEnd(jobs)
	}
	res := result{Attempted: r.tally.attempted, Failed: r.tally.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.tally.fail(1, "metric %s is %v", d.name, v)
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	res.Attempted, res.Failed = r.tally.attempted, r.tally.failed
	res.Correct = res.Failed == 0 && res.Attempted > 0
	rec := record{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: r.trace, Fingerprint: fp, Result: res}
	recPath := filepath.Join(outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", *workload, *seed, *trace))
	if err := writeJSON(recPath, rec); err != nil {
		fmt.Fprintln(os.Stderr, "igbench:", err)
		os.Exit(1)
	}
	fpLine, _ := json.Marshal(fp)
	fmt.Printf("fingerprint %s\n", fpLine)
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
