package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// fingerprint identifies the machine, toolchain, source and input of a
// result. Absolute figures compare only between equal machine fields.
type fingerprint struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	// Commit is the git commit the build reported (IGBENCH_COMMIT), or
	// "unknown" outside a git checkout; Source hashes the module's Go
	// sources, which identifies the code either way.
	Commit string `json:"commit"`
	Source string `json:"source_sha256"`
	Seed   int64  `json:"seed"`
}

func takeFingerprint(seed int64) fingerprint {
	commit := os.Getenv("IGBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Source:     sourceHash("."),
		Seed:       seed,
	}
}

// cpuModel reads the first model name the kernel reports.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash hashes every Go source and module file under root, skipping
// hidden and build directories, in path order.
func sourceHash(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only narrows the hash
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sameMachine reports why a and b may not be compared in absolute terms,
// or "" when they may.
func sameMachine(a, b fingerprint) string {
	switch {
	case a.NumCPU != b.NumCPU:
		return fmt.Sprintf("nproc %d vs %d", a.NumCPU, b.NumCPU)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.CPU != b.CPU:
		return fmt.Sprintf("CPU %q vs %q", a.CPU, b.CPU)
	case a.GoVersion != b.GoVersion:
		return fmt.Sprintf("Go %s vs %s", a.GoVersion, b.GoVersion)
	}
	return ""
}

// compareMain prints b's metrics as ratios of a's. It refuses records from
// different machines, workloads, seeds or modes: those differ for reasons
// other than the code, so an absolute comparison would mislead.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: igbench compare BASE.json NEW.json")
		return 2
	}
	var recs [2]record
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &recs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "igbench: %s: %v\n", p, err)
			return 2
		}
	}
	a, b := recs[0], recs[1]
	why := sameMachine(a.Fingerprint, b.Fingerprint)
	switch {
	case why != "":
		why = "different machines: " + why + "; run both commits on one machine instead"
	case a.Workload != b.Workload || a.Seed != b.Seed || a.Trace != b.Trace || a.Seconds != b.Seconds:
		why = fmt.Sprintf("different runs: %s/seed %d/trace %v/%ds vs %s/seed %d/trace %v/%ds",
			a.Workload, a.Seed, a.Trace, a.Seconds, b.Workload, b.Seed, b.Trace, b.Seconds)
	}
	if why != "" {
		fmt.Fprintln(os.Stderr, "igbench: refusing to compare:", why)
		return 1
	}
	names := make([]string, 0, len(a.Result.Metrics))
	for n := range a.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-28s %14s %14s %8s\n", "metric", "base", "new", "new/base")
	for _, n := range names {
		av, bv := a.Result.Metrics[n].Value, b.Result.Metrics[n].Value
		fmt.Printf("%-28s %14.6g %14.6g %8.3f\n", n, av, bv, ratio(bv, av))
	}
	return 0
}
