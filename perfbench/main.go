// Command perfbench is the repository's end-to-end benchmark: it builds
// one workload (network, optimizer, budgets) from a seed, times its
// set-up and its training iterations (or plans) on the wall clock,
// checks the outputs against a reference, and prints every metric by
// name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation. With -trace 1 a separate, traced run records spans
// around the calls into each layer and reports per-layer metrics; the
// spans are written to .bench_build/spans/ when the run ends.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload alexnet-roomy --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --compare a.json b.json
//
// See perfbench/README.md for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ucudnn/internal/conv"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is what a run writes to its result file: the printed result
// plus everything needed to decide whether two results are comparable.
type record struct {
	Fingerprint fingerprint       `json:"fingerprint"`
	Workload    workload          `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Trace       int               `json:"trace"`
	Result      result            `json:"result"`
	Info        map[string]metric `json:"info"`
	Errors      []string          `json:"errors,omitempty"`
}

// run accumulates one benchmark run's counts, metrics and failures.
type run struct {
	w       workload
	seed    int64
	seconds time.Duration
	traced  bool

	attempted, failed int
	errs              []string
	metrics           map[string]metric
	// info holds numbers printed for people but not part of the result:
	// modeled values that repeat exactly, and the error rate.
	info map[string]metric
}

func (b *run) fail(err error) {
	b.failed++
	b.errs = append(b.errs, err.Error())
	fmt.Printf("FAIL: %v\n", err)
}

func (b *run) set(name string, v float64, unit string) { b.metrics[name] = metric{v, unit} }

func (b *run) note(name string, v float64, unit string) { b.info[name] = metric{v, unit} }

func main() {
	os.Exit(mainErr())
}

// endToEnd lists the metrics of an untraced run, in BENCHMARK.json's order.
var endToEnd = []string{"samples_per_s", "setup_s", "device_mem_peak_mib", "host_rss_peak_mib"}

// perLayer lists the metrics of a traced run, in BENCHMARK.json's order.
func perLayer() []string {
	names := []string{
		"dnn.forward_s", "dnn.backward_s", "dnn.self_s",
		"dnn.ooc.windows", "dnn.ooc.fetch_mib", "dnn.ooc.spill_mib", "dnn.ooc.recompute_mib", "dnn.ooc.degraded",
		"core.conv_calls", "core.conv_s", "core.fwd_s", "core.bwd_data_s", "core.bwd_filter_s",
		"core.microbatches", "core.divided_kernels", "core.fallbacks", "core.self_s", "core.ws_granted_mib",
		"core.opt_s", "core.desirable_states", "core.wr_dp_states", "core.cache_hit_ratio",
		"ilp.solve_s", "ilp.nodes", "ilp.vars", "lp.simplex_iters",
	}
	for _, a := range []conv.Algo{conv.AlgoGemm, conv.AlgoWinograd, conv.AlgoWinogradNonfused, conv.AlgoFFT,
		conv.AlgoFFTTiling, conv.AlgoImplicitGemm, conv.AlgoImplicitPrecompGemm, conv.AlgoDirect} {
		names = append(names, algoMetric(a)+".s", algoMetric(a)+".launches", algoMetric(a)+".gflops")
	}
	return append(names, "conv.scaling_x", "blas.fc_gflops", "telemetry.overhead_ratio",
		"bench.trace_overhead_ratio", "bench.traced_iter_s", "bench.unattributed_s")
}

// checkNames fails the run unless it reported exactly the metrics its
// mode promises.
func (b *run) checkNames() {
	want := endToEnd
	if b.traced {
		want = perLayer()
	}
	missing := []string{}
	for _, name := range want {
		if _, ok := b.metrics[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 || len(b.metrics) != len(want) {
		b.fail(fmt.Errorf("metrics: %d reported, %d promised, missing %v", len(b.metrics), len(want), missing))
	}
}

func mainErr() int {
	var (
		name    = flag.String("workload", "", "workload: alexnet-roomy, alexnet-constrained, resnet50-plan")
		seed    = flag.Int64("seed", 1, "seed for inputs, labels and parameter init")
		secs    = flag.Float64("seconds", 10, "seconds of timed work per run")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
		compare = flag.Bool("compare", false, "compare two result files given as arguments; refuses if their fingerprints differ")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: -compare takes two result files")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if *secs <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	b := &run{
		w: w, seed: *seed, seconds: time.Duration(*secs * float64(time.Second)), traced: *traced == 1,
		metrics: map[string]metric{}, info: map[string]metric{},
	}
	fp := hostFingerprint()
	fmt.Printf("perfbench: workload %s, seed %d, %.0f s, trace %d\n", w.Name, b.seed, *secs, *traced)
	printJSON("fingerprint", fp)
	printJSON("workload", w)

	switch {
	case b.traced:
		err = b.layers()
	case w.train():
		err = b.trainE2E()
	default:
		err = b.planE2E()
	}
	if err != nil {
		// The operation that failed was counted as attempted; the run
		// cannot go on without its result.
		b.fail(err)
	} else {
		b.checkNames()
	}
	if b.attempted == 0 {
		b.attempted = 1
	}
	b.note("error_rate", float64(b.failed)/float64(b.attempted), "ratio")
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}
	printMetrics("info (not gated)", b.info)
	printMetrics("metrics", b.metrics)
	rec := record{Fingerprint: fp, Workload: w, Seed: b.seed, Seconds: *secs, Trace: *traced,
		Result: res, Info: b.info, Errors: b.errs}
	path := filepath.Join(".bench_build", "results", fmt.Sprintf("%s-seed%d-trace%d.json", w.Name, b.seed, *traced))
	if err := writeJSON(path, rec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing %s: %v\n", path, err)
		return 1
	}
	fmt.Printf("result file: %s\n", path)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func printJSON(label string, v any) {
	data, _ := json.Marshal(v)
	fmt.Printf("%s: %s\n", label, data)
}

func printMetrics(title string, ms map[string]metric) {
	fmt.Printf("%s:\n", title)
	for _, name := range sortedKeys(ms) {
		fmt.Printf("  %-36s %14.6g %s\n", name, ms[name].Value, ms[name].Unit)
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
