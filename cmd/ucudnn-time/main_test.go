package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ucudnn/internal/zoo"
)

func opts(net string, batch int, dev, mode, policy string, ws, total int64, iters int, db, tracePath string) runOpts {
	return runOpts{Net: net, Batch: batch, Device: dev, Mode: mode, Policy: policy,
		WSMiB: ws, TotalMiB: total, Iters: iters, DB: db, Trace: tracePath}
}

func TestRunModes(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	cases := []struct {
		name string
		call func() error
	}{
		{"cudnn", func() error { return run(opts("inception", 16, "p100", "cudnn", "powerOfTwo", 8, 0, 1, "", "")) }},
		{"wr", func() error { return run(opts("inception", 16, "p100", "wr", "powerOfTwo", 8, 0, 1, "", "")) }},
		{"wd", func() error { return run(opts("inception", 16, "p100", "wd", "powerOfTwo", 8, 64, 1, "", "")) }},
		{"trace", func() error { return run(opts("inception", 16, "k80", "wr", "undivided", 8, 0, 1, "", tracePath)) }},
		{"db", func() error {
			return run(opts("inception", 16, "v100", "wr", "all", 8, 0, 1, filepath.Join(dir, "db.jsonl"), ""))
		}},
	}
	for _, c := range cases {
		if err := c.call(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\"ph\":\"X\"") {
		t.Fatal("trace file has no spans")
	}
}

// TestRunTraceHasLayerSpans checks the acceptance criterion for
// `ucudnn-time -trace`: the Chrome trace holds exactly one span per
// layer per direction (the layer rows of the paper's Fig. 3) alongside
// the kernel spans.
func TestRunTraceHasLayerSpans(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	if err := run(opts("inception", 16, "p100", "wr", "powerOfTwo", 8, 0, 1, "", tracePath)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string `json:"name"`
		Cat  string `json:"cat"`
	}
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatal(err)
	}
	spans := map[[2]string]int{}
	kernels := 0
	for _, e := range events {
		switch e.Cat {
		case "forward", "backward":
			spans[[2]string{e.Cat, e.Name}]++
		default:
			kernels++
		}
	}
	if len(spans) == 0 || kernels == 0 {
		t.Fatalf("trace lacks layer or kernel spans: %d layer series, %d kernel events", len(spans), kernels)
	}
	for k, n := range spans {
		if n != 1 {
			t.Fatalf("%v spans = %d, want exactly 1", k, n)
		}
	}
}

func TestRunMetrics(t *testing.T) {
	dir := t.TempDir()
	for _, path := range []string{filepath.Join(dir, "m.txt"), filepath.Join(dir, "m.prom")} {
		o := opts("inception", 16, "p100", "wr", "powerOfTwo", 8, 0, 1, "", "")
		o.Metrics = path
		if err := run(o); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), "ucudnn_opt_wr_seconds") {
			t.Fatalf("%s: no WR optimizer metrics in output", path)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(opts("bogus", 8, "p100", "wr", "powerOfTwo", 8, 0, 1, "", "")); err == nil {
		t.Fatal("bogus net must error")
	}
	if err := run(opts("inception", 8, "bogus", "wr", "powerOfTwo", 8, 0, 1, "", "")); err == nil {
		t.Fatal("bogus device must error")
	}
	if err := run(opts("inception", 8, "p100", "bogus", "powerOfTwo", 8, 0, 1, "", "")); err == nil {
		t.Fatal("bogus mode must error")
	}
	if err := run(opts("inception", 8, "p100", "wr", "bogus", 8, 0, 1, "", "")); err == nil {
		t.Fatal("bogus policy must error")
	}
	if err := run(opts("inception", 8, "p100", "wd", "powerOfTwo", 8, 0, 1, "", "")); err == nil {
		t.Fatal("wd without total must error")
	}
}

func TestAllNetworksBuild(t *testing.T) {
	for _, n := range zoo.Names() {
		if err := run(opts(n, 4, "p100", "cudnn", "powerOfTwo", 8, 0, 1, "", "")); err != nil {
			t.Fatalf("%s: %v", n, err)
		}
	}
}

// TestMain lets the test binary stand in for the command: started as
// `<test binary> ucudnn-time <flags>`, it runs main.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "ucudnn-time" {
		os.Args = os.Args[1:]
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// An armed fault schedule's fired-shot log is printed exactly once on
// every exit path: success, a failed run, and a profile report
// that cannot be written after the run succeeds.
func TestFaultLogOnEveryExit(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "x.json")
	for _, c := range []struct {
		args []string
		exit int
	}{
		{[]string{"-net", "inception", "-batch", "8", "-iters", "1"}, 0},
		{[]string{"-net", "bogus"}, 1},
		{[]string{"-net", "inception", "-batch", "8", "-iters", "1", "-profile", bad}, 1},
	} {
		args := append([]string{"ucudnn-time", "-faults", "ucudnn_fp_arena_grow=every:2,shrink=4"}, c.args...)
		cmd := exec.Command(os.Args[0], args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		if code := cmd.ProcessState.ExitCode(); code != c.exit {
			t.Fatalf("%v: exit %d (%v), want %d:\n%s", c.args, code, err, c.exit, stderr.String())
		}
		if n := strings.Count(stderr.String(), "faults: schedule"); n != 1 {
			t.Fatalf("%v: fault log printed %d times:\n%s", c.args, n, stderr.String())
		}
	}
}
