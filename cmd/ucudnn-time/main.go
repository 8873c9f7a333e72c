// Command ucudnn-time is the `caffe time` equivalent: it builds one of
// the zoo networks over the simulated device, runs timed forward-backward
// iterations, and prints the per-layer breakdown — under plain cuDNN or
// µ-cuDNN (WR or WD).
//
// Usage:
//
//	ucudnn-time -net alexnet -batch 256 -device p100 -mode wr -policy powerOfTwo -ws 64
//	ucudnn-time -net resnet50 -batch 32 -mode wd -total 2544
//	ucudnn-time -net alexnet -mode wr -trace out.json -metrics -
//	ucudnn-time -net alexnet -mode wr -profile prof.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ucudnn/internal/cudnn"
	"ucudnn/internal/obs"
	"ucudnn/internal/rig"
	"ucudnn/internal/trace"
	"ucudnn/internal/zoo"
)

// runOpts mirrors the command-line flags.
type runOpts struct {
	Net      string
	Batch    int
	Device   string
	Mode     string
	Policy   string
	WSMiB    int64
	TotalMiB int64
	Iters    int
	BlobMiB  int64
	DB       string
	Trace    string
	Metrics  string
	Faults   string
	Profile  string

	// DebugAddr serves the debugserver endpoints; Registry is the shared
	// metrics registry backing -metrics and /debug/ucudnn/metrics.
	DebugAddr string
	Registry  *obs.Registry
}

func main() {
	var o runOpts
	flag.StringVar(&o.Net, "net", "alexnet", "network: "+strings.Join(zoo.Names(), ", "))
	flag.IntVar(&o.Batch, "batch", 256, "mini-batch size")
	flag.StringVar(&o.Device, "device", "p100", "device: k80, p100, v100")
	flag.StringVar(&o.Mode, "mode", "wr", "mode: cudnn, wr, wd")
	flag.StringVar(&o.Policy, "policy", "powerOfTwo", "batch-size policy: undivided, powerOfTwo, all")
	flag.Int64Var(&o.WSMiB, "ws", 64, "per-kernel workspace limit (MiB)")
	flag.Int64Var(&o.TotalMiB, "total", 0, "WD total workspace (MiB; required for -mode wd)")
	flag.IntVar(&o.Iters, "iters", 3, "timed iterations")
	flag.Int64Var(&o.BlobMiB, "blob-budget", 0,
		"out-of-core blob budget (MiB): stream activations in micro-batch windows under this working-set bound (0 = off)")
	flag.StringVar(&o.DB, "db", "", "benchmark database file (optional)")
	flag.StringVar(&o.Trace, "trace", "", "write a Chrome trace (chrome://tracing) of the final iteration")
	flag.StringVar(&o.Metrics, "metrics", "", "write µ-cuDNN metrics at exit (\"-\" for stdout, .prom for Prometheus; wr/wd modes)")
	flag.StringVar(&o.Faults, "faults", "", "arm a fault-injection schedule, e.g. \"ucudnn_fp_convolve=nth:3;ucudnn_fp_arena_grow=every:2,shrink=4\"")
	flag.StringVar(&o.Profile, "profile", "", "write a per-phase cost-attribution report (\"-\" for a table on stdout, else JSON; forces real compute)")
	flag.StringVar(&o.DebugAddr, "debug-addr", os.Getenv("UCUDNN_DEBUG_ADDR"),
		"serve /debug/ucudnn/ endpoints on this address, e.g. localhost:6060 (default $UCUDNN_DEBUG_ADDR)")
	flag.Parse()

	s, err := rig.Start(rig.Telemetry{Faults: o.Faults, Metrics: o.Metrics, DebugAddr: o.DebugAddr,
		Profile: o.Profile != "", ProfileOut: o.Profile})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	o.Registry = s.Registry
	if err := s.Finish(run(o)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(o runOpts) error {
	// Phase profiling needs the kernels to actually run, so -profile
	// trades the model-only fast path for real compute.
	backend := cudnn.ModelOnlyBackend
	if o.Profile != "" {
		backend = cudnn.ModelBackend
	}
	r, err := rig.Build(rig.Config{Net: o.Net, Batch: o.Batch, Device: o.Device, Backend: backend,
		Mode: o.Mode, Policy: o.Policy, WS: o.WSMiB << 20, Total: o.TotalMiB << 20, Blob: o.BlobMiB << 20,
		Cache: o.DB, MetricsPath: o.Metrics, Metrics: o.Registry})
	if err != nil {
		return err
	}
	uc, net := r.UC, r.Net
	if o.Metrics != "" && uc == nil {
		fmt.Fprintln(os.Stderr, "ucudnn-time: -metrics needs -mode wr or wd; ignoring")
	}

	rep, err := net.Time(o.Iters)
	if err != nil {
		return err
	}
	if o.Trace != "" {
		// Record one clean traced iteration after the timed ones (plans are
		// already decided, so no warm-up runs): kernel spans on track 0
		// (cudnn handle), layer spans on track 1 (Net).
		rec := trace.New()
		r.Inner.SetTrace(rec)
		r.Ctx.Trace = rec
		if err := net.Forward(); err != nil {
			return err
		}
		if err := net.Backward(); err != nil {
			return err
		}
		r.Inner.SetTrace(nil)
		r.Ctx.Trace = nil
		f, err := os.Create(o.Trace)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rec.WriteChrome(f); err != nil {
			return err
		}
		fmt.Printf("wrote %d trace events to %s (open in chrome://tracing)\n", rec.Len(), o.Trace)
	}
	fmt.Printf("%s on %s, N=%d, mode=%s policy=%s (%d iterations)\n\n",
		o.Net, r.Inner.Device().Name, o.Batch, o.Mode, r.Policy, o.Iters)
	rep.Print(os.Stdout)
	fmt.Printf("\nconvolutions: %v (%.1f%% of iteration)\n",
		rep.SumMatching(zoo.IsConvLayer),
		100*float64(rep.SumMatching(zoo.IsConvLayer))/float64(rep.Total()))
	if uc != nil {
		fmt.Printf("µ-cuDNN optimization time: %v\n", uc.OptimizationTime())
		if s := uc.WDStats(); s != nil {
			fmt.Printf("WD: %d ILP vars, %d nodes, solved in %v, %s MiB assigned\n",
				s.ILPVars, s.ILPNodes, s.SolveTime, fmtMiB(s.TotalWorkspace))
		}
		if err := uc.Flush(); err != nil {
			return err
		}
	}
	if ooc := r.Ctx.OOC; ooc != nil {
		rep := ooc.Report()
		fmt.Printf("OOC: budget %s MiB, chunk %d (%d windows), peak %s MiB, floor=%v, degraded=%d\n",
			fmtMiB(r.OOC.Budget), rep.Chunk, rep.Windows, fmtMiB(r.OOC.PeakBytes), rep.Floor, rep.Degraded)
		if err := ooc.Metrics().WriteSummary(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

func fmtMiB(b int64) string { return fmt.Sprintf("%.1f", float64(b)/(1<<20)) }
