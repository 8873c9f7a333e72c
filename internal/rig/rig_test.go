package rig

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"ucudnn/internal/core"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/dnn"
)

func recipe(mode string) Config {
	return Config{Net: "alexnet", Batch: 8, Device: "p100", Backend: cudnn.ModelOnlyBackend,
		Mode: mode, Policy: "powerOfTwo", WS: 8 << 20, Total: 64 << 20}
}

// Under a blob budget, WD's pool is the joint one: the planned working
// set is added to the total and reserved out of it.
func TestBuildJointPool(t *testing.T) {
	c := recipe("wd")
	c.Blob = 16 << 20
	r, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	if r.OOC == nil || r.Ctx.OOC == nil || r.OOC.PeakBytes <= 0 {
		t.Fatalf("blob budget built no OOC plan: %+v", r.OOC)
	}
	o := r.UC.Options()
	if o.TotalWorkspaceLimit != c.Total+r.OOC.PeakBytes || o.BlobReserve != r.OOC.PeakBytes {
		t.Fatalf("joint pool: total %d reserve %d, want %d and %d",
			o.TotalWorkspaceLimit, o.BlobReserve, c.Total+r.OOC.PeakBytes, r.OOC.PeakBytes)
	}
	if r.Ctx.WorkspaceLimit != core.DefaultWorkspaceLimit {
		t.Fatalf("wd framework limit %d, want the default", r.Ctx.WorkspaceLimit)
	}
	if err := r.Net.Setup(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildModes(t *testing.T) {
	r, err := Build(recipe("cudnn"))
	if err != nil {
		t.Fatal(err)
	}
	if r.UC != nil || r.Ctx.Conv != dnn.ConvHandle(r.Inner) || r.OOC != nil {
		t.Fatal("cudnn mode must run on the bare cuDNN handle, without OOC")
	}
	if r.Ctx.WorkspaceLimit != 8<<20 || !r.Ctx.SkipCompute || r.Loss.Labels != nil {
		t.Fatalf("cudnn mode context: limit %d skip %v labels %v", r.Ctx.WorkspaceLimit, r.Ctx.SkipCompute, r.Loss.Labels)
	}

	c := recipe("wr")
	c.Backend = cudnn.ModelBackend
	if r, err = Build(c); err != nil {
		t.Fatal(err)
	}
	if r.UC == nil || r.UC.Options().WorkspaceLimit != c.WS || r.UC.Options().Mode != core.WR {
		t.Fatal("wr mode must wrap the handle with the per-kernel limit")
	}
	if r.Ctx.SkipCompute || len(r.Loss.Labels) != c.Batch {
		t.Fatal("a computing backend needs compute on and a label per sample")
	}
}

func TestBuildErrors(t *testing.T) {
	for name, edit := range map[string]func(*Config){
		"net":         func(c *Config) { c.Net = "bogus" },
		"net+blob":    func(c *Config) { c.Net, c.Blob = "bogus", 16<<20 },
		"mode":        func(c *Config) { c.Mode = "bogus" },
		"device":      func(c *Config) { c.Device = "bogus" },
		"policy":      func(c *Config) { c.Policy = "bogus" },
		"wd no total": func(c *Config) { c.Total = 0 },
	} {
		c := recipe("wd")
		edit(&c)
		if _, err := Build(c); err == nil {
			t.Errorf("%s: want an error", name)
		}
	}
}

// Finish prints the fired-shot log exactly once whether the run
// succeeded, failed, or failed only at writing the profile report.
func TestFinishReportsFaultsOnce(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "p.json")
	for name, c := range map[string]struct {
		profileOut string
		runErr     error
	}{
		"ok":            {"", nil},
		"run error":     {"", errors.New("run failed")},
		"profile error": {bad, nil},
	} {
		s, err := Start(Telemetry{Faults: "ucudnn_fp_arena_grow=every:2,shrink=4", Profile: true, ProfileOut: c.profileOut})
		if err != nil {
			t.Fatal(err)
		}
		var log bytes.Buffer
		s.stderr = &log
		err = s.Finish(c.runErr)
		if (err != nil) != (c.runErr != nil || c.profileOut != "") {
			t.Fatalf("%s: Finish = %v", name, err)
		}
		if n := strings.Count(log.String(), "faults: schedule"); n != 1 {
			t.Fatalf("%s: fault log printed %d times:\n%s", name, n, log.String())
		}
	}
}

func TestStartErrors(t *testing.T) {
	if _, err := Start(Telemetry{Faults: "bogus=nth:1"}); err == nil {
		t.Fatal("bad fault spec must error")
	}
	s, err := Start(Telemetry{Metrics: "-"})
	if err != nil {
		t.Fatal(err)
	}
	if s.Registry == nil {
		t.Fatal("-metrics needs a registry")
	}
	if err := s.Finish(nil); err != nil {
		t.Fatal(err)
	}
}
