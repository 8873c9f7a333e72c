// Package rig is the one place a run is built from its recipe: the
// device and cuDNN handle, the µ-cuDNN handle for the chosen mode, the
// zoo network over them and, under a blob budget, the out-of-core plan
// with its share of the WD joint pool reserved. The CLIs and the bench
// harness describe a run as a Config and call Build; Start and Finish
// own the telemetry around a CLI invocation.
package rig

import (
	"fmt"

	"ucudnn/internal/core"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/device"
	"ucudnn/internal/dnn"
	"ucudnn/internal/obs"
	"ucudnn/internal/zoo"
)

// Config is a run's recipe, in the terms of the CLI flags that spell it.
type Config struct {
	Net     string // zoo network name
	Batch   int
	Device  string // device name, e.g. "p100"
	Backend cudnn.Backend
	Mode    string // cudnn, wr or wd
	Policy  string // batch-size policy, e.g. "powerOfTwo"
	WS      int64  // per-kernel workspace limit (bytes; cudnn and wr)
	Total   int64  // WD total workspace (bytes)
	Blob    int64  // out-of-core blob budget (bytes; 0 = off)
	Cache   string // benchmark database path
	Workers int    // parallel benchmark workers

	// MetricsPath is where the µ-cuDNN handle's Flush exports metrics;
	// Metrics is the registry its instrumentation feeds.
	MetricsPath string
	Metrics     *obs.Registry
}

// Run is a built, not yet set-up run.
type Run struct {
	Policy core.Policy
	Inner  *cudnn.Handle
	UC     *core.Handle // nil in cudnn mode
	Ctx    *dnn.Context
	Net    *dnn.Net
	Loss   *dnn.SoftmaxLoss // nil for a network without a loss head
	OOC    *dnn.OOCPlan     // nil without a blob budget
}

// Build turns c into handles, a network and, when c.Blob > 0, an
// out-of-core plan. Device memory is uncapped: runs measure time, not
// capacity. Unless the backend is model-only, the network computes and
// its loss gets one label per sample.
func Build(c Config) (*Run, error) {
	d, err := device.ByName(c.Device)
	if err != nil {
		return nil, err
	}
	r := &Run{}
	if r.Policy, err = core.ParsePolicy(c.Policy); err != nil {
		return nil, err
	}
	// The framework-side per-kernel limit is what Caffe passes through;
	// WD divides its total instead, so it gets Caffe's default.
	wsLimit := c.WS
	switch c.Mode {
	case "cudnn", "wr":
	case "wd":
		if c.Total <= 0 {
			return nil, fmt.Errorf("wd mode requires -total")
		}
		wsLimit = core.DefaultWorkspaceLimit
	default:
		return nil, fmt.Errorf("unknown mode %q", c.Mode)
	}

	var model *dnn.OOCModel
	if c.Blob > 0 {
		if model, err = probe(c, d, wsLimit); err != nil {
			return nil, err
		}
		plan, err := dnn.PlanOOC(model, c.Blob)
		if err != nil {
			return nil, err
		}
		r.OOC = &plan
	}

	r.Inner = cudnn.NewHandle(d, c.Backend)
	r.Inner.Mem().Cap = 0
	var convH dnn.ConvHandle = r.Inner
	if c.Mode != "cudnn" {
		opts := []core.Option{core.WithPolicy(r.Policy), core.WithCachePath(c.Cache), core.WithWorkers(c.Workers),
			core.WithMetricsPath(c.MetricsPath), core.WithMetrics(c.Metrics)}
		if c.Mode == "wr" {
			opts = append(opts, core.WithWorkspaceLimit(c.WS))
		} else {
			total := c.Total
			if r.OOC != nil {
				// One joint pool: the planned blob working set is reserved
				// out of the WD budget, so workspace and activations trade
				// off against each other instead of competing unaccounted.
				total += r.OOC.PeakBytes
				opts = append(opts, core.WithBlobReserve(r.OOC.PeakBytes))
			}
			opts = append(opts, core.WithWD(total))
		}
		if r.UC, err = core.New(r.Inner, opts...); err != nil {
			return nil, err
		}
		convH = r.UC
	}

	r.Ctx = dnn.NewContext(convH, r.Inner, wsLimit)
	r.Ctx.SkipCompute = c.Backend == cudnn.ModelOnlyBackend
	if model != nil {
		r.Ctx.OOC = dnn.NewOOCState(model, *r.OOC)
	}
	if r.Net, r.Loss, err = zoo.Build(r.Ctx, c.Net, c.Batch); err != nil {
		return nil, err
	}
	if !r.Ctx.SkipCompute && r.Loss != nil {
		r.Loss.Labels = make([]int, c.Batch)
		for i := range r.Loss.Labels {
			r.Loss.Labels[i] = i % 10
		}
	}
	return r, nil
}

// probe sets up a shapes-only instance of the network and returns its
// activation footprint model, the input of the out-of-core planner.
func probe(c Config, d device.Spec, wsLimit int64) (*dnn.OOCModel, error) {
	h := cudnn.NewHandle(d, cudnn.ModelOnlyBackend)
	h.Mem().Cap = 0
	ctx := dnn.NewContext(h, h, wsLimit)
	ctx.SkipCompute = true
	net, _, err := zoo.Build(ctx, c.Net, c.Batch)
	if err != nil {
		return nil, err
	}
	if err := net.Setup(); err != nil {
		return nil, fmt.Errorf("probing %s for the blob budget: %w", c.Net, err)
	}
	return dnn.FootprintModel(net)
}
