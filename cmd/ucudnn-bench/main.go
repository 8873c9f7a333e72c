// Command ucudnn-bench regenerates the paper's tables and figures on the
// simulated device models.
//
// Usage:
//
//	ucudnn-bench -exp fig10 [-device p100] [-batch 256] [-iters 3] [-csv out.csv]
//	ucudnn-bench -exp all -metrics metrics.prom -trace trace.json
//	ucudnn-bench -exp fig10 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Experiments: fig1 fig8 fig9 fig10 fig11 fig12 fig13 fig14 table1
// opttime summary.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"ucudnn/internal/bench"
	"ucudnn/internal/device"
	"ucudnn/internal/rig"
	"ucudnn/internal/trace"
)

// runOpts mirrors the command-line flags run reads.
type runOpts struct {
	Exp        string
	CSV        string
	Metrics    string
	Trace      string
	CPUProfile string
	MemProfile string
}

func main() {
	var o runOpts
	flag.StringVar(&o.Exp, "exp", "summary", "experiment name or 'all' ("+strings.Join(bench.Names(), ", ")+")")
	dev := flag.String("device", "p100", "device: k80, p100, v100")
	batch := flag.Int("batch", 0, "override mini-batch size (0 = experiment default)")
	iters := flag.Int("iters", 3, "timed iterations")
	flag.StringVar(&o.CSV, "csv", "", "also write CSV rows to this file")
	flag.StringVar(&o.Metrics, "metrics", "", "write cumulative µ-cuDNN metrics at exit (\"-\" for stdout, .prom for Prometheus)")
	flag.StringVar(&o.Trace, "trace", "", "write a Chrome trace of every timed run")
	flag.StringVar(&o.CPUProfile, "cpuprofile", "", "write a CPU profile of the run for go tool pprof")
	flag.StringVar(&o.MemProfile, "memprofile", "", "write a heap profile at exit for go tool pprof")
	faultSpec := flag.String("faults", "", "arm a fault-injection schedule, e.g. \"ucudnn_fp_convolve=nth:3;ucudnn_fp_arena_grow=every:2,shrink=4\"")
	profilePath := flag.String("profile", "", "write a per-phase cost-attribution report at exit (\"-\" for a table on stdout, else JSON)")
	debugAddr := flag.String("debug-addr", os.Getenv("UCUDNN_DEBUG_ADDR"),
		"serve /debug/ucudnn/ endpoints on this address, e.g. localhost:6060 (default $UCUDNN_DEBUG_ADDR)")
	flag.Parse()

	d, err := device.ByName(*dev)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	s, err := rig.Start(rig.Telemetry{Faults: *faultSpec, Metrics: o.Metrics, DebugAddr: *debugAddr,
		Profile: *profilePath != "", ProfileOut: *profilePath})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cfg := bench.Config{Device: d, Batch: *batch, Iters: *iters, Out: os.Stdout, Metrics: s.Registry}
	if err := s.Finish(run(o, cfg)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run executes the experiments and writes the CSV, metrics, trace and
// pprof outputs.
func run(o runOpts, cfg bench.Config) (err error) {
	if o.CPUProfile != "" {
		f, err := os.Create(o.CPUProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if o.MemProfile != "" {
		defer func() {
			if err != nil {
				return
			}
			f, ferr := os.Create(o.MemProfile)
			if ferr != nil {
				err = ferr
				return
			}
			defer f.Close()
			runtime.GC() // materialize the steady-state live set
			err = pprof.WriteHeapProfile(f)
		}()
	}
	if o.CSV != "" {
		f, err := os.Create(o.CSV)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg.CSV = f
	}
	if o.Trace != "" {
		cfg.Trace = trace.New()
	}

	names := []string{o.Exp}
	if o.Exp == "all" {
		names = bench.Names()
	}
	for _, name := range names {
		if err := bench.Run(name, cfg); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	if o.Metrics != "" {
		if err := cfg.Metrics.WriteFile(o.Metrics); err != nil {
			return err
		}
	}
	if cfg.Trace != nil {
		f, err := os.Create(o.Trace)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := cfg.Trace.WriteChrome(f); err != nil {
			return err
		}
	}
	return nil
}
