// Command ucudnn-trace exports and analyzes the unified causal
// timeline: it runs traced iterations of a zoo network (like
// ucudnn-time), correlates every kernel, transfer and layer span with
// its iteration → layer → conv-call scope chain, and reports the
// critical path and the modeled-vs-measured out-of-core stall table.
//
// Usage:
//
//	ucudnn-trace -net alexnet -batch 64 -mode wr -o timeline.json
//	ucudnn-trace -net densenet40 -batch 64 -mode wd -total 512 -blob-budget 96 -critical-path -stalls
//	ucudnn-trace -net alexnet -chrome trace.json     # Chrome/Perfetto, flow arrows
//	ucudnn-trace -check timeline.json                # schema + invariant validator
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ucudnn/internal/causal"
	"ucudnn/internal/conv"
	"ucudnn/internal/core"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/debugserver"
	"ucudnn/internal/device"
	"ucudnn/internal/dnn"
	"ucudnn/internal/faults"
	"ucudnn/internal/flight"
	"ucudnn/internal/obs"
	"ucudnn/internal/prof"
	"ucudnn/internal/trace"
	"ucudnn/internal/zoo"
)

// minCoverage is the -check floor for per-iteration critical-path
// coverage (the acceptance bar: the chain must explain >= 95% of wall).
const minCoverage = 0.95

// runOpts mirrors the command-line flags.
type runOpts struct {
	Net      string
	Batch    int
	Device   string
	Mode     string
	Policy   string
	WSMiB    int64
	TotalMiB int64
	BlobMiB  int64
	Iters    int
	Workers  int

	Out      string
	Chrome   string
	Critical bool
	Stalls   bool
	Check    string
	Profile  bool
	Metrics  string
	Faults   string

	DebugAddr string
	Registry  *obs.Registry
}

func main() {
	var o runOpts
	flag.StringVar(&o.Net, "net", "alexnet", "network: alexnet, caffe-alexnet, resnet18, resnet50, densenet40, inception")
	flag.IntVar(&o.Batch, "batch", 64, "mini-batch size")
	flag.StringVar(&o.Device, "device", "p100", "device: k80, p100, v100")
	flag.StringVar(&o.Mode, "mode", "wr", "mode: cudnn, wr, wd")
	flag.StringVar(&o.Policy, "policy", "powerOfTwo", "batch-size policy: undivided, powerOfTwo, all")
	flag.Int64Var(&o.WSMiB, "ws", 64, "per-kernel workspace limit (MiB)")
	flag.Int64Var(&o.TotalMiB, "total", 0, "WD total workspace (MiB; required for -mode wd)")
	flag.Int64Var(&o.BlobMiB, "blob-budget", 0, "out-of-core blob budget (MiB, 0 = off)")
	flag.IntVar(&o.Iters, "iters", 2, "traced iterations")
	flag.IntVar(&o.Workers, "workers", 0, "kernel worker cap (0 = leave default); the exported timeline is byte-identical across worker counts")
	flag.StringVar(&o.Out, "o", "", "write the canonical causal timeline JSON here")
	flag.StringVar(&o.Chrome, "chrome", "", "write Chrome trace-event JSON (flow arrows, named tracks) here")
	flag.BoolVar(&o.Critical, "critical-path", false, "print the per-iteration critical-path report")
	flag.BoolVar(&o.Stalls, "stalls", false, "print the per-layer modeled-vs-measured stall table")
	flag.StringVar(&o.Check, "check", "", "validate a timeline JSON file (schema, ID numbering, flow edges, overlap, coverage) and exit")
	flag.BoolVar(&o.Profile, "profile", false, "enable phase profiling (real compute; feeds worker-imbalance attribution)")
	flag.StringVar(&o.Metrics, "metrics", "", "write metrics at exit, incl. ucudnn_stall_seconds_total / ucudnn_critical_path_seconds (\"-\" for stdout, .prom for Prometheus)")
	flag.StringVar(&o.Faults, "faults", "", "arm a fault-injection schedule, e.g. \"ucudnn_fp_arena_grow=every:2,shrink=4\"")
	flag.StringVar(&o.DebugAddr, "debug-addr", os.Getenv("UCUDNN_DEBUG_ADDR"),
		"serve /debug/ucudnn/ endpoints (incl. /timeline) on this address (default $UCUDNN_DEBUG_ADDR)")
	flag.Parse()
	flight.DumpOnSignal()

	if o.Check != "" {
		if err := check(o.Check, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	report, err := armFaults(o.Faults)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if o.Metrics != "" || o.DebugAddr != "" {
		o.Registry = obs.NewRegistry()
	}
	if o.DebugAddr != "" {
		srv, err := debugserver.Start(o.DebugAddr, o.Registry)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/ucudnn/\n", srv.Addr())
	}
	err = run(o, os.Stdout)
	report()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// check validates a timeline file: the schema/ID/flow/overlap
// invariants plus the analysis-level acceptance bars (critical-path
// coverage, single-cause stall attribution).
func check(path string, w io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	t, err := causal.ReadTimeline(f)
	if err != nil {
		return err
	}
	if err := t.Validate(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	a := causal.Analyze(t, nil)
	for _, it := range a.Iterations {
		if it.WallNS > 0 && it.Coverage < minCoverage {
			return fmt.Errorf("%s: iteration %d critical path covers %.1f%% of wall, want >= %.0f%%",
				path, it.Span, it.Coverage*100, minCoverage*100)
		}
	}
	for _, l := range a.Layers {
		if l.StallNS > 0 && l.Cause == "" {
			return fmt.Errorf("%s: layer %s has %dns stall with no attributed cause", path, l.Layer, l.StallNS)
		}
	}
	fmt.Fprintf(w, "%s: ok (%d scopes, %d events, %d iterations, %d layers)\n",
		path, len(t.Scopes), len(t.Events), len(a.Iterations), len(a.Layers))
	return nil
}

// armFaults installs the fault schedule (if any) and returns a closure
// that disarms it and prints the fired shots.
func armFaults(spec string) (func(), error) {
	if spec == "" {
		return func() {}, nil
	}
	freg, err := faults.Parse(spec)
	if err != nil {
		return nil, err
	}
	faults.Install(freg)
	return func() {
		faults.Install(nil)
		fmt.Fprintf(os.Stderr, "faults: schedule %q fired [%s]\n", freg.String(), freg.ShotLog())
	}, nil
}

func run(o runOpts, w io.Writer) error {
	d, err := device.ByName(o.Device)
	if err != nil {
		return err
	}
	pol, err := core.ParsePolicy(o.Policy)
	if err != nil {
		return err
	}
	if o.Workers > 0 {
		prev := conv.SetMaxWorkers(o.Workers)
		defer conv.SetMaxWorkers(prev)
	}
	backend := cudnn.ModelOnlyBackend
	if o.Profile {
		// Launch accounting needs the kernels to actually run; the
		// simulated clock (and so the timeline) stays deterministic.
		backend = cudnn.ModelBackend
		prof.Enable()
		prof.SetMetrics(o.Registry)
		defer prof.Disable()
	}

	var oocModel *dnn.OOCModel
	var oocPlan dnn.OOCPlan
	if o.BlobMiB > 0 {
		probeInner := cudnn.NewHandle(d, cudnn.ModelOnlyBackend)
		probeInner.Mem().Cap = 0
		probeCtx := dnn.NewContext(probeInner, probeInner, o.WSMiB<<20)
		probeCtx.SkipCompute = true
		probeNet, _, err := buildNet(probeCtx, o.Net, o.Batch)
		if err != nil {
			return err
		}
		if err := probeNet.Setup(); err != nil {
			return fmt.Errorf("probing %s for the blob budget: %w", o.Net, err)
		}
		if oocModel, err = dnn.FootprintModel(probeNet); err != nil {
			return err
		}
		if oocPlan, err = dnn.PlanOOC(oocModel, o.BlobMiB<<20); err != nil {
			return err
		}
	}

	inner := cudnn.NewHandle(d, backend)
	inner.Mem().Cap = 0
	var convH dnn.ConvHandle = inner
	var uc *core.Handle
	switch o.Mode {
	case "cudnn":
	case "wr":
		uc, err = core.New(inner, core.WithPolicy(pol), core.WithWorkspaceLimit(o.WSMiB<<20),
			core.WithMetrics(o.Registry))
		if err != nil {
			return err
		}
		convH = uc
	case "wd":
		if o.TotalMiB <= 0 {
			return fmt.Errorf("-mode wd requires -total")
		}
		opts := []core.Option{core.WithPolicy(pol), core.WithMetrics(o.Registry)}
		total := o.TotalMiB << 20
		if oocModel != nil {
			total += oocPlan.PeakBytes
			opts = append(opts, core.WithBlobReserve(oocPlan.PeakBytes))
		}
		uc, err = core.New(inner, append(opts, core.WithWD(total))...)
		if err != nil {
			return err
		}
		convH = uc
	default:
		return fmt.Errorf("unknown mode %q", o.Mode)
	}

	ctx := dnn.NewContext(convH, inner, o.WSMiB<<20)
	ctx.SkipCompute = !o.Profile
	if oocModel != nil {
		ctx.OOC = dnn.NewOOCState(oocModel, oocPlan)
	}
	net, loss, err := buildNet(ctx, o.Net, o.Batch)
	if err != nil {
		return err
	}
	if !ctx.SkipCompute && loss != nil {
		loss.Labels = make([]int, o.Batch)
		for i := range loss.Labels {
			loss.Labels[i] = i % 10
		}
	}

	// Warm-up pass: plans get decided and arenas settle, so the traced
	// iterations see steady state.
	if err := net.RunIteration(); err != nil {
		return err
	}

	causal.Reset()
	causal.Enable()
	defer causal.Disable()
	rec := trace.New()
	// Attach through the core handle when there is one so the debug
	// server's /debug/ucudnn/timeline endpoint sees the recorder too.
	setRec := func(r *trace.Recorder) {
		if uc != nil {
			uc.SetTraceRecorder(r)
		} else {
			inner.SetTrace(r)
		}
	}
	setRec(rec)
	ctx.Trace = rec
	for i := 0; i < o.Iters; i++ {
		if err := net.RunIteration(); err != nil {
			return err
		}
	}
	ctx.Trace = nil
	causal.Disable()

	t := causal.Build(rec.Events(), causal.Scopes())
	if err := t.Validate(); err != nil {
		return fmt.Errorf("internal: exported timeline fails validation: %w", err)
	}
	a := causal.Analyze(t, busyByLayer(o.Profile))

	if o.Out != "" {
		f, err := os.Create(o.Out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := t.WriteJSON(f); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote causal timeline (%d scopes, %d events) to %s\n", len(t.Scopes), len(t.Events), o.Out)
	}
	if o.Chrome != "" {
		f, err := os.Create(o.Chrome)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := t.WriteChrome(f); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote Chrome trace to %s (open in chrome://tracing or Perfetto)\n", o.Chrome)
	}
	if o.Critical || o.Stalls || (o.Out == "" && o.Chrome == "") {
		a.WriteTable(w)
	}

	if o.Registry != nil {
		a.Metrics(o.Registry)
		flight.SyncMetrics(o.Registry)
	}
	if o.Metrics != "" {
		if err := o.Registry.WriteFile(o.Metrics); err != nil {
			return err
		}
	}
	if uc != nil {
		if err := uc.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// busyByLayer folds the profiler's launch accounting into a layer ->
// mean worker busy ratio map for worker-imbalance attribution. The
// profiler keys backward rows as "layer/bwd"; the timeline's layer
// scopes use the base name, so both directions fold onto it (keeping
// the minimum: the worst imbalance attributes the layer).
func busyByLayer(enabled bool) map[string]float64 {
	if !enabled {
		return nil
	}
	busy := map[string]float64{}
	for _, r := range prof.Snapshot() {
		if r.Layer == "" || r.Launches == 0 || r.MeanBusyRatio <= 0 {
			continue
		}
		name := strings.TrimSuffix(r.Layer, "/bwd")
		if b, ok := busy[name]; !ok || r.MeanBusyRatio < b {
			busy[name] = r.MeanBusyRatio
		}
	}
	return busy
}

// buildNet constructs the named zoo network over ctx.
func buildNet(ctx *dnn.Context, name string, batch int) (*dnn.Net, *dnn.SoftmaxLoss, error) {
	switch name {
	case "alexnet":
		net, loss := zoo.AlexNet(ctx, batch, 1000)
		return net, loss, nil
	case "caffe-alexnet":
		net, loss := zoo.CaffeAlexNet(ctx, batch, 1000)
		return net, loss, nil
	case "resnet18":
		net, loss := zoo.ResNet18(ctx, batch, 1000)
		return net, loss, nil
	case "resnet50":
		net, loss := zoo.ResNet50(ctx, batch, 1000)
		return net, loss, nil
	case "densenet40":
		net, loss := zoo.DenseNet40(ctx, batch, 40, 10)
		return net, loss, nil
	case "inception":
		return zoo.InceptionModule(ctx, batch), nil, nil
	}
	return nil, nil, fmt.Errorf("unknown network %q", name)
}
