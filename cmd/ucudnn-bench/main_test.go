package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command: started as
// `<test binary> ucudnn-bench <flags>`, it runs main.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "ucudnn-bench" {
		os.Args = os.Args[1:]
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// An armed fault schedule's fired-shot log is printed exactly once on
// every exit path: success, a failed experiment, and a profile
// report that cannot be written after the experiments succeed.
func TestFaultLogOnEveryExit(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "x.json")
	for _, c := range []struct {
		args []string
		exit int
	}{
		{[]string{"-exp", "fig1"}, 0},
		{[]string{"-exp", "bogus"}, 1},
		{[]string{"-exp", "fig1", "-profile", bad}, 1},
	} {
		args := append([]string{"ucudnn-bench", "-faults", "ucudnn_fp_arena_grow=every:2,shrink=4"}, c.args...)
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
