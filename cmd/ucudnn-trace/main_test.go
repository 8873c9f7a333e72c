package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ucudnn/internal/causal"
)

func traceOpts(mode string, blobMiB int64) runOpts {
	o := runOpts{Net: "alexnet", Batch: 32, Device: "p100", Mode: mode, Policy: "powerOfTwo",
		WSMiB: 64, Iters: 2, BlobMiB: blobMiB}
	if mode == "wd" {
		o.TotalMiB = 256
	}
	return o
}

// The run → export → check round trip: the emitted timeline passes the
// validator and the analysis acceptance bars.
func TestRunAndCheck(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "timeline.json")
	o := traceOpts("wr", 0)
	o.Out = out
	o.Critical = true
	o.Stalls = true
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "critical path:") {
		t.Fatalf("report missing critical path:\n%s", buf.String())
	}
	var checkOut bytes.Buffer
	if err := check(out, &checkOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(checkOut.String(), ": ok (") {
		t.Fatalf("check output: %q", checkOut.String())
	}
}

// Under a blob budget the stall table must attribute every positive
// stall to exactly one cause, and the per-iteration critical path must
// cover >= 95% of wall time (the ISSUE's acceptance criterion; check
// enforces both).
func TestRunOOCStallAttribution(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "timeline.json")
	o := traceOpts("wd", 16)
	o.Net = "densenet40"
	o.Batch = 8
	o.Iters = 1
	o.Out = out
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	if err := check(out, &buf); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tl, err := causal.ReadTimeline(f)
	if err != nil {
		t.Fatal(err)
	}
	a := causal.Analyze(tl, nil)
	attributed := 0
	for _, l := range a.Layers {
		if l.StallNS > 0 {
			if l.Cause == "" {
				t.Fatalf("layer %s: stall without cause", l.Layer)
			}
			attributed++
		}
	}
	if attributed == 0 {
		t.Fatal("blob-budgeted run produced no attributable stalls")
	}
	if len(a.StallNS) == 0 {
		t.Fatal("no stall totals")
	}
}

// The determinism acceptance criterion, end to end through the CLI:
// identical bytes across worker counts.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	read := func(workers int) string {
		out := filepath.Join(dir, "tl.json")
		o := traceOpts("wr", 0)
		o.Workers = workers
		o.Out = out
		var buf bytes.Buffer
		if err := run(o, &buf); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if a, b := read(1), read(4); a != b {
		t.Fatal("timeline bytes differ between 1 and 4 workers")
	}
}

// Chrome export writes flow-arrow-enriched trace-event JSON.
func TestRunChromeExport(t *testing.T) {
	chrome := filepath.Join(t.TempDir(), "chrome.json")
	o := traceOpts("wr", 0)
	o.Chrome = chrome
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"ph":"M"`, `"ph":"X"`, `"span":`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("chrome trace missing %s", want)
		}
	}
}

// check must reject a tampered timeline.
func TestCheckRejectsCorrupt(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	o := traceOpts("wr", 0)
	o.Out = good
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad,
		bytes.Replace(data, []byte(`"schema": "ucudnn-causal-timeline/v1"`), []byte(`"schema": "bogus"`), 1),
		0o644); err != nil {
		t.Fatal(err)
	}
	if err := check(bad, &buf); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("check accepted corrupt timeline: %v", err)
	}
	if err := check(filepath.Join(dir, "missing.json"), &buf); err == nil {
		t.Fatal("check accepted a missing file")
	}
}

// TestMain lets the test binary stand in for the command: started as
// `<test binary> ucudnn-trace <flags>`, it runs main.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "ucudnn-trace" {
		os.Args = os.Args[1:]
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// An armed fault schedule's fired-shot log is printed exactly once on
// every exit path: success and a failed run.
func TestFaultLogOnEveryExit(t *testing.T) {
	for _, c := range []struct {
		args []string
		exit int
	}{
		{[]string{"-net", "inception", "-batch", "8", "-iters", "1"}, 0},
		{[]string{"-net", "bogus"}, 1},
	} {
		args := append([]string{"ucudnn-trace", "-faults", "ucudnn_fp_arena_grow=every:2,shrink=4"}, c.args...)
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
