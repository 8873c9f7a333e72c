package main

import (
	"fmt"
	"math/rand"
	"time"

	"ucudnn/internal/core"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/device"
	"ucudnn/internal/dnn"
	"ucudnn/internal/obs"
	"ucudnn/internal/zoo"
)

// workload is one fixed configuration of network, optimizer and budgets.
// Only the seed varies between runs of a workload.
type workload struct {
	Name     string `json:"name"`
	Net      string `json:"net"`
	Batch    int    `json:"batch"`
	Mode     string `json:"mode"`   // "wr" or "wd"
	Policy   string `json:"policy"` // core.ParsePolicy spelling
	WSMiB    int64  `json:"ws_mib"`
	TotalMiB int64  `json:"total_mib,omitempty"`
	BlobMiB  int64  `json:"blob_budget_mib,omitempty"`
	Backend  string `json:"backend"`
	Device   string `json:"device"`
}

// train reports whether the workload runs real arithmetic (a training
// workload) rather than planning on the model-only backend.
func (w workload) train() bool { return w.Backend == cudnn.ModelBackend.String() }

var workloads = []workload{
	{Name: "alexnet-roomy", Net: "alexnet", Batch: 8, Mode: "wr", Policy: "powerOfTwo",
		WSMiB: 64, Backend: cudnn.ModelBackend.String(), Device: device.P100.Name},
	{Name: "alexnet-constrained", Net: "alexnet", Batch: 8, Mode: "wr", Policy: "powerOfTwo",
		WSMiB: 8, BlobMiB: 24, Backend: cudnn.ModelBackend.String(), Device: device.P100.Name},
	{Name: "resnet50-plan", Net: "resnet50", Batch: 64, Mode: "wd", Policy: "all",
		WSMiB: 64, TotalMiB: 512, Backend: cudnn.ModelOnlyBackend.String(), Device: device.P100.Name},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// rigOpts selects how a rig is wired.
type rigOpts struct {
	// reference builds the correctness oracle instead: the plain cuDNN
	// handle, undivided, no out-of-core streaming, PreferFastest.
	reference bool
	// metrics, when non-nil, is the µ-cuDNN handle's obs registry.
	metrics *obs.Registry
	// rec, when non-nil, wraps the µ-cuDNN handle in a span-recording
	// shim and brackets the set-up calls.
	rec *recorder
}

// rig is one built network with its handles.
type rig struct {
	w     workload
	inner *cudnn.Handle
	uc    *core.Handle // nil for the reference
	shim  *convShim    // nil unless traced
	ctx   *dnn.Context
	net   *dnn.Net
	rec   *recorder
	seed  int64
	// lastIter is the span of the last iteration (-1 when untraced).
	lastIter int
	// steps counts measured iterations; modeled is the modeled-clock
	// advance of the first, which every later one must repeat.
	steps   int
	modeled time.Duration
}

func buildNet(ctx *dnn.Context, w workload) (*dnn.Net, *dnn.SoftmaxLoss, error) {
	switch w.Net {
	case "alexnet":
		net, loss := zoo.AlexNet(ctx, w.Batch, 1000)
		return net, loss, nil
	case "resnet50":
		net, loss := zoo.ResNet50(ctx, w.Batch, 1000)
		return net, loss, nil
	}
	return nil, nil, fmt.Errorf("unknown network %q", w.Net)
}

func backendOf(w workload) cudnn.Backend {
	if w.train() {
		return cudnn.ModelBackend
	}
	return cudnn.ModelOnlyBackend
}

// planOOC probes the network's footprint (shapes only, no arithmetic)
// and plans micro-batch windows under the workload's blob budget.
func planOOC(w workload) (*dnn.OOCState, error) {
	probe := cudnn.NewHandle(device.P100, cudnn.ModelOnlyBackend)
	probe.Mem().Cap = 0
	ctx := dnn.NewContext(probe, probe, w.WSMiB<<20)
	ctx.SkipCompute = true
	net, _, err := buildNet(ctx, w)
	if err != nil {
		return nil, err
	}
	if err := net.Setup(); err != nil {
		return nil, fmt.Errorf("probing %s for the blob budget: %w", w.Net, err)
	}
	model, err := dnn.FootprintModel(net)
	if err != nil {
		return nil, err
	}
	plan, err := dnn.PlanOOC(model, w.BlobMiB<<20)
	if err != nil {
		return nil, err
	}
	return dnn.NewOOCState(model, plan), nil
}

// build constructs the workload's handles and network from the seed:
// parameter init draws from the seed, the input batch and labels from
// seed+1. Everything build does counts as set-up.
func build(w workload, seed int64, o rigOpts) (*rig, error) {
	r := &rig{w: w, seed: seed, rec: o.rec}
	r.inner = cudnn.NewHandle(device.P100, backendOf(w))
	r.inner.Mem().Cap = 0
	var convH dnn.ConvHandle = r.inner
	if o.reference {
		r.ctx = dnn.NewContextTF(r.inner, r.inner)
	} else {
		pol, err := core.ParsePolicy(w.Policy)
		if err != nil {
			return nil, err
		}
		opts := []core.Option{core.WithPolicy(pol), core.WithWorkspaceLimit(w.WSMiB << 20), core.WithMetrics(o.metrics)}
		if w.Mode == "wd" {
			opts = append(opts, core.WithWD(w.TotalMiB<<20))
		}
		if r.uc, err = core.New(r.inner, opts...); err != nil {
			return nil, err
		}
		convH = r.uc
		if o.rec != nil {
			r.shim = &convShim{Handle: r.uc, rec: o.rec}
			convH = r.shim
		}
		r.ctx = dnn.NewContext(convH, r.inner, w.WSMiB<<20)
	}
	r.ctx.RNG = rand.New(rand.NewSource(seed))
	r.ctx.SkipCompute = !w.train()
	if w.BlobMiB > 0 && !o.reference {
		err := r.rec.within("dnn.ooc.plan", func() (err error) {
			r.ctx.OOC, err = planOOC(w)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	net, loss, err := buildNet(r.ctx, w)
	if err != nil {
		return nil, err
	}
	r.net = net
	if err := r.rec.within("dnn.setup", net.Setup); err != nil {
		return nil, err
	}
	if !w.train() {
		// Timing-only layers skip parameter init. Initialize and clear the
		// parameters here so their memory is backed like a training net's:
		// untouched pages read as the shared zero page, and copies of them
		// would run at a speed no real network sees.
		for _, p := range net.Params() {
			for i := range p.Data {
				p.Data[i] = r.ctx.RNG.Float32()*2 - 1
			}
		}
		net.ZeroGrads()
	}
	if w.train() {
		in := rand.New(rand.NewSource(seed + 1))
		net.InputBlob().Data.Randomize(in, 1)
		loss.Labels = make([]int, w.Batch)
		for i := range loss.Labels {
			loss.Labels[i] = in.Intn(1000)
		}
	}
	if r.uc != nil {
		// Closes kernel registration; in WD mode this runs the optimizer.
		if err := r.rec.within("core.finalize", r.uc.FinalizeRegistration); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// iterate runs one forward and backward pass. Parameter gradients are
// cleared and the dropout stream is re-seeded first, so every iteration
// of a rig computes the same values, and the reference computes them too.
// It returns the wall time of the passes and the modeled-clock delta.
func (r *rig) iterate() (wall, modeled time.Duration, err error) {
	if r.w.train() {
		r.net.ZeroGrads()
	}
	r.ctx.RNG.Seed(r.seed + 2)
	m0 := r.inner.Elapsed()
	it := r.rec.begin("iteration")
	r.lastIter = it
	t0 := time.Now()
	err = r.rec.within("dnn.forward", r.net.Forward)
	if err == nil {
		err = r.rec.within("dnn.backward", r.net.Backward)
	}
	wall = time.Since(t0)
	r.rec.end(it)
	return wall, r.inner.Elapsed() - m0, err
}

// outputs is what the correctness check compares: the network's output
// blob and every convolution parameter gradient, copied out.
type outputs struct {
	names []string
	data  [][]float32
}

func (r *rig) outputs() outputs {
	var o outputs
	add := func(name string, d []float32) {
		o.names = append(o.names, name)
		o.data = append(o.data, append([]float32(nil), d...))
	}
	add("output", r.net.OutputBlob().Data.Data)
	for _, c := range r.net.ConvLayers() {
		for _, p := range c.Params() {
			add(p.Name+".grad", p.Grad)
		}
	}
	return o
}

// gradTolerance is the relative-L2 error the correctness check accepts
// between a workload's outputs and the reference's. The two runs may use
// different algorithms and micro-batch splits, so they agree to float32
// rounding (~1e-6), not bitwise — and a rounding difference can flip a
// ReLU or max-pool decision on a near-tie, which shifts every gradient
// below it: up to 1.1e-2 over 40-odd seeds of alexnet-constrained. A
// wrong result is off by far more: one lost sample of eight moves a
// batch gradient by ~1/sqrt(8), a lost or doubled window by more.
const gradTolerance = 5e-2

// compareOutputs checks got against the reference want.
func compareOutputs(got, want outputs, tol float64) error {
	if len(got.names) != len(want.names) {
		return fmt.Errorf("%d outputs, reference has %d", len(got.names), len(want.names))
	}
	for i, name := range got.names {
		if name != want.names[i] {
			return fmt.Errorf("output %d is %s, reference has %s", i, name, want.names[i])
		}
		if err := compareTensor(name, got.data[i], want.data[i], tol); err != nil {
			return err
		}
	}
	return nil
}
