package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"ucudnn/internal/conv"
)

// fingerprint identifies the host and configuration a result was
// measured on. Striped workspace sizes, and with them the plans, depend
// on the kernel worker count, so results are comparable only when their
// fingerprints (and workloads) are equal.
type fingerprint struct {
	CPUModel    string `json:"cpu_model"`
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	ConvWorkers int    `json:"conv_max_workers"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
}

func hostFingerprint() fingerprint {
	return fingerprint{
		CPUModel:    cpuModel(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		ConvWorkers: conv.MaxWorkers(),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// where there is none).
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

// maxRSSMiB is the process's peak resident set size so far.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// compareFiles prints the metric ratios of two result files, refusing
// (exit status 2) when their fingerprints, workloads or traced-ness
// differ: such numbers measure the host or the configuration, not the
// code.
func compareFiles(pathA, pathB string) int {
	var a, b record
	for _, x := range []struct {
		path string
		rec  *record
	}{{pathA, &a}, {pathB, &b}} {
		data, err := os.ReadFile(x.path)
		if err == nil {
			err = json.Unmarshal(data, x.rec)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: reading %s: %v\n", x.path, err)
			return 2
		}
	}
	if diffs := comparable(a, b); len(diffs) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to compare %s and %s:\n", pathA, pathB)
		for _, d := range diffs {
			fmt.Fprintf(os.Stderr, "  %s\n", d)
		}
		return 2
	}
	fmt.Printf("%-36s %14s %14s %8s\n", "metric", "a", "b", "b/a")
	for _, name := range sortedKeys(a.Result.Metrics) {
		ma := a.Result.Metrics[name]
		mb, ok := b.Result.Metrics[name]
		if !ok {
			fmt.Printf("%-36s %14.6g %14s\n", name, ma.Value, "missing")
			continue
		}
		ratio := "-"
		if ma.Value != 0 {
			ratio = fmt.Sprintf("%.3f", mb.Value/ma.Value)
		}
		fmt.Printf("%-36s %14.6g %14.6g %8s %s\n", name, ma.Value, mb.Value, ratio, ma.Unit)
	}
	return 0
}

// comparable lists why two records may not be compared (none if they
// may). Seeds may differ: they choose inputs, not the configuration.
func comparable(a, b record) []string {
	var out []string
	if a.Fingerprint != b.Fingerprint {
		out = append(out, fmt.Sprintf("fingerprint %+v != %+v", a.Fingerprint, b.Fingerprint))
	}
	if a.Workload != b.Workload {
		out = append(out, fmt.Sprintf("workload %+v != %+v", a.Workload, b.Workload))
	}
	if a.Trace != b.Trace || a.Seconds != b.Seconds {
		out = append(out, fmt.Sprintf("trace/seconds %d/%g != %d/%g", a.Trace, a.Seconds, b.Trace, b.Seconds))
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
