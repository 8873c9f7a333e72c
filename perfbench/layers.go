package main

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"ucudnn/internal/blas"
	"ucudnn/internal/causal"
	"ucudnn/internal/conv"
	"ucudnn/internal/core"
	"ucudnn/internal/dnn"
	"ucudnn/internal/obs"
	"ucudnn/internal/prof"
	"ucudnn/internal/tensor"
	"ucudnn/internal/trace"
)

// maxRounds caps the measurement rounds of the traced run. The
// model-only workload iterates in milliseconds; its per-layer medians
// need a few dozen iterations, not the thousands a run would fit.
const maxRounds = 40

// iterStats is what one traced iteration measured.
type iterStats struct {
	iter, fwd, bwd, dnnSelf          time.Duration
	conv, convFwd, convBD, convBF    time.Duration
	calls, microbatches              int
	fetch, spill, recompute, degrade int64
}

// layers is the traced run: it reports the per-layer metrics of the
// workload. It builds two rigs: an uninstrumented one for the all-off
// baseline, and a traced one whose set-up and iterations are bracketed
// by spans and whose handle keeps a metrics registry. It then runs
// rounds of three iterations — all off, traced, and traced rig with the
// program's own telemetry on — so drift in the host's speed affects the
// three alike. A replay of the planned kernels and the correctness check
// follow.
func (b *run) layers() error {
	base, _, err := b.setUp(rigOpts{})
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	rec := newRecorder()
	defer func() {
		path := spanPath(b.w.Name, b.seed)
		if err := rec.write(path); err != nil {
			fmt.Printf("spans: writing %s: %v\n", path, err)
			return
		}
		fmt.Printf("spans: %d written to %s\n", len(rec.spans), path)
	}()
	r, _, err := b.setUp(rigOpts{metrics: reg, rec: rec})
	if err != nil {
		return err
	}
	b.planningMetrics(r, reg, rec)

	var offWalls, onWalls []float64
	var its []iterStats
	start := time.Now()
	for len(its) < 2 || (time.Since(start) < b.seconds && len(its) < maxRounds) {
		off, err := b.step(base)
		if err != nil {
			return err
		}
		s, err := b.tracedIteration(r, reg, rec)
		if err != nil {
			return err
		}
		on, err := b.telemetryIteration(r, reg)
		if err != nil {
			return err
		}
		offWalls = append(offWalls, off.Seconds())
		onWalls = append(onWalls, on.Seconds())
		its = append(its, s)
	}
	base = nil
	calls := r.shim.calls

	var replayed time.Duration
	if b.w.train() {
		if replayed, err = b.replayMetrics(r, calls, rec); err != nil {
			return err
		}
		b.blasMetrics(rec)
	} else {
		b.zeroKernelMetrics()
	}

	pick := func(f func(iterStats) float64) float64 {
		xs := make([]float64, len(its))
		for i, s := range its {
			xs[i] = f(s)
		}
		return median(xs)
	}
	sec := func(f func(iterStats) time.Duration) float64 {
		return pick(func(s iterStats) float64 { return f(s).Seconds() })
	}
	iterS := sec(func(s iterStats) time.Duration { return s.iter })
	dnnSelf := sec(func(s iterStats) time.Duration { return s.dnnSelf })
	convS := sec(func(s iterStats) time.Duration { return s.conv })
	b.set("dnn.forward_s", sec(func(s iterStats) time.Duration { return s.fwd }), "s")
	b.set("dnn.backward_s", sec(func(s iterStats) time.Duration { return s.bwd }), "s")
	b.set("dnn.self_s", dnnSelf, "s")
	b.set("core.conv_s", convS, "s")
	b.set("core.fwd_s", sec(func(s iterStats) time.Duration { return s.convFwd }), "s")
	b.set("core.bwd_data_s", sec(func(s iterStats) time.Duration { return s.convBD }), "s")
	b.set("core.bwd_filter_s", sec(func(s iterStats) time.Duration { return s.convBF }), "s")
	b.set("core.conv_calls", pick(func(s iterStats) float64 { return float64(s.calls) }), "count")
	b.set("core.microbatches", pick(func(s iterStats) float64 { return float64(s.microbatches) }), "count")
	b.set("core.self_s", convS-replayed.Seconds(), "s")
	const mib = 1 << 20
	b.set("dnn.ooc.fetch_mib", pick(func(s iterStats) float64 { return float64(s.fetch) / mib }), "MiB")
	b.set("dnn.ooc.spill_mib", pick(func(s iterStats) float64 { return float64(s.spill) / mib }), "MiB")
	b.set("dnn.ooc.recompute_mib", pick(func(s iterStats) float64 { return float64(s.recompute) / mib }), "MiB")
	b.set("dnn.ooc.degraded", pick(func(s iterStats) float64 { return float64(s.degrade) }), "count")
	windows := 0.0
	if ooc := r.ctx.OOC; ooc != nil {
		windows = float64(ooc.Report().Windows)
	}
	b.set("dnn.ooc.windows", windows, "count")

	offS := median(offWalls)
	b.set("bench.traced_iter_s", iterS, "s")
	b.set("bench.trace_overhead_ratio", iterS/offS, "ratio")
	b.set("telemetry.overhead_ratio", median(onWalls)/offS, "ratio")
	gap := iterS - (dnnSelf + (convS - replayed.Seconds()) + replayed.Seconds())
	b.set("bench.unattributed_s", gap, "s")
	fmt.Printf("attribution: traced iteration %.4f s = dnn.self %.4f + core.self %.4f + kernel replay %.4f + unattributed %.4f\n",
		iterS, dnnSelf, convS-replayed.Seconds(), replayed.Seconds(), gap)
	fmt.Printf("rounds: %d; median iteration all-off %.4f s, traced %.4f s, telemetry on %.4f s\n",
		len(its), offS, iterS, median(onWalls))

	if !b.w.train() {
		return nil
	}
	got := r.outputs()
	r = nil
	return b.checkOutputs(got)
}

// tracedIteration runs one iteration under spans and returns what it
// measured: span tallies, the out-of-core report delta and the handle's
// micro-batch launch counter delta. The convolution calls of the
// iteration are left in r.shim.calls.
func (b *run) tracedIteration(r *rig, reg *obs.Registry, rec *recorder) (iterStats, error) {
	var s iterStats
	before := oocReport(r, rec)
	launches := algoLaunches(reg)
	r.shim.calls, r.shim.logging = r.shim.calls[:0], true
	if _, err := b.step(r); err != nil {
		return s, err
	}
	r.shim.logging = false
	t := rec.tallies(r.lastIter)
	after := oocReport(r, rec)
	s.iter = t["iteration"].Total
	s.fwd, s.bwd = t["dnn.forward"].Total, t["dnn.backward"].Total
	s.dnnSelf = t["dnn.forward"].Self + t["dnn.backward"].Self
	s.convFwd = t[convSpan[conv.Forward]].Total
	s.convBD = t[convSpan[conv.BackwardData]].Total
	s.convBF = t[convSpan[conv.BackwardFilter]].Total
	s.conv = s.convFwd + s.convBD + s.convBF
	s.calls = len(r.shim.calls)
	s.microbatches = int(algoLaunches(reg) - launches)
	s.fetch = after.FetchBytes - before.FetchBytes
	s.spill = after.SpillBytes - before.SpillBytes
	s.recompute = after.RecomputeBytes - before.RecomputeBytes
	s.degrade = int64(after.Degraded - before.Degraded)
	return s, nil
}

func oocReport(r *rig, rec *recorder) dnn.OOCReport {
	var rep dnn.OOCReport
	if ooc := r.ctx.OOC; ooc != nil {
		_ = rec.within("dnn.ooc.report", func() error { rep = ooc.Report(); return nil })
	}
	return rep
}

// algoLaunches sums the handle's ucudnn_algo_selected_total series: one
// count per micro-batch kernel launched.
func algoLaunches(reg *obs.Registry) int64 {
	var n int64
	for _, op := range conv.Ops {
		for _, a := range conv.AlgosFor(op) {
			n += reg.Counter(core.MetricAlgoSelected, obs.L("op", op.String()), obs.L("algo", a.String())).Value()
		}
	}
	return n
}

// planningMetrics reads the optimizer's costs and the plans after
// set-up, each through the handle's public accessors under a span.
func (b *run) planningMetrics(r *rig, reg *obs.Registry, rec *recorder) {
	var (
		opt   time.Duration
		wd    *core.WDResult
		plans []core.Plan
		cache core.CacheStats
	)
	_ = rec.within("core.optimization_time", func() error { opt = r.uc.OptimizationTime(); return nil })
	_ = rec.within("core.wd_stats", func() error { wd = r.uc.WDStats(); return nil })
	_ = rec.within("core.plans", func() error { plans = r.uc.Plans(); return nil })
	_ = rec.within("core.cache_stats", func() error { cache = r.uc.Cache().Stats(); return nil })
	divided := 0
	for _, p := range plans {
		if !p.Config.Undivided() {
			divided++
		}
	}
	fallbacks := int64(0)
	for _, stage := range []string{"pareto", "finer", "floor"} {
		fallbacks += reg.Counter(core.MetricFallback, obs.L("stage", stage)).Value()
	}
	hitRatio := 0.0
	if n := cache.Hits + cache.Misses; n > 0 {
		hitRatio = float64(cache.Hits) / float64(n)
	}
	b.set("core.opt_s", opt.Seconds(), "s")
	b.set("core.divided_kernels", float64(divided), "count")
	b.set("core.fallbacks", float64(fallbacks), "count")
	b.set("core.ws_granted_mib", float64(reg.Counter(core.MetricWSGranted).Value())/(1<<20), "MiB")
	b.set("core.desirable_states", float64(reg.Counter(core.MetricDesirableStates).Value()), "count")
	b.set("core.wr_dp_states", float64(reg.Counter(core.MetricWRDPStates).Value()), "count")
	b.set("core.cache_hit_ratio", hitRatio, "ratio")
	var ilpS float64
	var nodes, vars, iters int
	if wd != nil {
		ilpS, nodes, vars, iters = wd.SolveTime.Seconds(), wd.ILPNodes, wd.ILPVars, wd.SimplexIters
	}
	b.set("ilp.solve_s", ilpS, "s")
	b.set("ilp.nodes", float64(nodes), "count")
	b.set("ilp.vars", float64(vars), "count")
	b.set("lp.simplex_iters", float64(iters), "count")
	sort.Slice(plans, func(i, j int) bool { return plans[i].Kernel.String() < plans[j].Kernel.String() })
	for _, p := range plans {
		fmt.Printf("plan: %v\n", p)
	}
}

// telemetryIteration runs one iteration with the program's own
// telemetry on — the phase profiler, the causal scope log, a trace
// recorder on both the handle and the network, and the metrics registry
// the rig was built with — and the benchmark's spans off. The flight
// recorder is always on, here and in the baseline alike.
func (b *run) telemetryIteration(r *rig, reg *obs.Registry) (time.Duration, error) {
	rec := r.rec
	r.rec, r.shim.rec = nil, nil
	prof.Enable()
	prof.SetMetrics(reg)
	causal.Enable()
	tr := trace.New()
	r.uc.SetTraceRecorder(tr)
	r.ctx.Trace = tr
	defer func() {
		r.ctx.Trace = nil
		r.uc.SetTraceRecorder(nil)
		causal.Disable()
		causal.Reset()
		prof.Disable()
		prof.SetMetrics(nil)
		prof.Reset()
		r.rec, r.shim.rec = rec, rec
	}()
	return b.step(r)
}

// algoMetric is the metric-name stem of an algorithm: "conv.fft_tiling".
func algoMetric(a conv.Algo) string { return "conv." + strings.ToLower(a.String()) }

type algoTally struct {
	time     time.Duration
	launches int
	flops    float64
}

// replayer re-runs the micro-batch kernels the handle's plans launch
// for a list of calls, through conv.Run, and times each launch. Inputs
// are the calls' own operands — kernels such as IMPLICIT_GEMM skip zero
// operands, so the time depends on the values — and outputs go to
// scratch tensors, leaving the network's results untouched.
// Micro-batches are sliced and blended as core.Handle executes them.
type replayer struct {
	plans []core.Plan // per call
	outs  []convCall  // per call: the operands with the output swapped for scratch
	arena []float32
}

// newReplayer resolves each call's plan and allocates every scratch
// buffer up front, so nothing allocates while launches are timed.
func newReplayer(calls []convCall, plans map[string]core.Plan) (*replayer, error) {
	p := &replayer{}
	tensors := map[tensor.Shape]*tensor.Tensor{}
	filters := map[tensor.Filter]*tensor.FilterTensor{}
	scratch := func(t *tensor.Tensor) *tensor.Tensor {
		if tensors[t.Shape] == nil {
			tensors[t.Shape] = tensor.NewShaped(t.Shape)
		}
		return tensors[t.Shape]
	}
	for _, c := range calls {
		plan, ok := plans[core.Kernel{Op: c.Op, Shape: c.Shape}.String()]
		if !ok {
			return nil, fmt.Errorf("replay: no plan for %v %v", c.Op, c.Shape)
		}
		if n := int((plan.Workspace + 3) / 4); n > len(p.arena) {
			p.arena = make([]float32, n)
		}
		switch c.Op {
		case conv.Forward:
			c.Y = scratch(c.Y)
		case conv.BackwardData:
			c.X = scratch(c.X)
		case conv.BackwardFilter:
			f := c.W.Filter
			if filters[f] == nil {
				filters[f] = tensor.NewFilter(f.K, f.C, f.R, f.S)
			}
			c.W = filters[f]
		}
		p.plans = append(p.plans, plan)
		p.outs = append(p.outs, c)
	}
	return p, nil
}

// run replays every launch once under a span named name, and returns
// the per-algorithm tallies and the total kernel time.
func (p *replayer) run(rec *recorder, name string) (map[conv.Algo]*algoTally, time.Duration, error) {
	debug.FreeOSMemory() // no collection or scavenging behind the timed launches
	out := map[conv.Algo]*algoTally{}
	var total time.Duration
	root := rec.begin(name)
	defer rec.end(root)
	for ci, c := range p.outs {
		plan := p.plans[ci]
		ws := p.arena[:(plan.Workspace+3)/4]
		off := 0
		for i, mc := range plan.Config {
			cs := c.Shape.WithN(mc.BatchSize)
			beta := float32(0)
			if c.Op == conv.BackwardFilter && i > 0 {
				beta = 1
			}
			s := rec.begin(algoMetric(mc.Algo))
			t0 := time.Now()
			err := conv.Run(c.Op, mc.Algo, cs, c.X.Sample(off, mc.BatchSize), c.W, c.Y.Sample(off, mc.BatchSize), 1, beta, ws)
			d := time.Since(t0)
			rec.end(s)
			if err != nil {
				return nil, 0, fmt.Errorf("replay: %v %v on %v: %w", c.Op, mc.Algo, cs, err)
			}
			t := out[mc.Algo]
			if t == nil {
				t = &algoTally{}
				out[mc.Algo] = t
			}
			t.time += d
			t.launches++
			t.flops += directFLOPs(cs)
			total += d
			off += mc.BatchSize
		}
	}
	return out, total, nil
}

// replayMetrics replays the last traced iteration's kernels at the
// default worker count (conv.<algo>.* metrics) and with one worker
// (conv.scaling_x), and returns the default-count replay time.
func (b *run) replayMetrics(r *rig, calls []convCall, rec *recorder) (time.Duration, error) {
	plans := map[string]core.Plan{}
	for _, p := range r.uc.Plans() {
		plans[p.Kernel.String()] = p
	}
	rp, err := newReplayer(calls, plans)
	if err != nil {
		return 0, err
	}
	// An untimed pass first, so the timed ones do not pay for faulting in
	// the scratch buffers that the live calls had long since touched.
	if _, _, err := rp.run(nil, ""); err != nil {
		return 0, err
	}
	tallies, total, err := rp.run(rec, "conv.replay")
	if err != nil {
		return 0, err
	}
	prev := conv.SetMaxWorkers(1)
	_, serial, err := rp.run(rec, "conv.replay_1worker")
	conv.SetMaxWorkers(prev)
	if err != nil {
		return 0, err
	}
	for a := conv.Algo(0); a < conv.NumAlgos; a++ {
		t := tallies[a]
		if t == nil {
			t = &algoTally{}
		}
		gflops := 0.0
		if t.time > 0 {
			gflops = t.flops / t.time.Seconds() / 1e9
		}
		b.set(algoMetric(a)+".s", t.time.Seconds(), "s")
		b.set(algoMetric(a)+".launches", float64(t.launches), "count")
		b.set(algoMetric(a)+".gflops", gflops, "GFLOP/s")
	}
	b.set("conv.scaling_x", serial.Seconds()/total.Seconds(), "ratio")
	return total, nil
}

// zeroKernelMetrics reports the kernel-level metrics of a workload that
// runs no arithmetic.
func (b *run) zeroKernelMetrics() {
	for a := conv.Algo(0); a < conv.NumAlgos; a++ {
		b.set(algoMetric(a)+".s", 0, "s")
		b.set(algoMetric(a)+".launches", 0, "count")
		b.set(algoMetric(a)+".gflops", 0, "GFLOP/s")
	}
	b.set("conv.scaling_x", 0, "ratio")
	b.set("blas.fc_gflops", 0, "GFLOP/s")
}

// AlexNet's fc6 forward product: batch x 9216 inputs -> 4096 outputs.
const (
	fc6In  = 256 * 6 * 6
	fc6Out = 4096
)

// blasMetrics times blas.Sgemm at AlexNet's fc6 forward shape for the
// workload's batch and reports the median rate.
func (b *run) blasMetrics(rec *recorder) {
	m := b.w.Batch
	rng := rand.New(rand.NewSource(b.seed))
	x := make([]float32, m*fc6In)
	w := make([]float32, fc6Out*fc6In)
	y := make([]float32, m*fc6Out)
	for i := range x {
		x[i] = rng.Float32()
	}
	for i := range w {
		w[i] = rng.Float32()
	}
	var ts []float64
	for i := 0; i < 9; i++ {
		s := rec.begin("blas.sgemm")
		t0 := time.Now()
		blas.Sgemm(false, true, m, fc6Out, fc6In, 1, x, fc6In, w, fc6In, 0, y, fc6Out)
		ts = append(ts, time.Since(t0).Seconds())
		rec.end(s)
	}
	b.set("blas.fc_gflops", 2*float64(m)*fc6Out*fc6In/median(ts)/1e9, "GFLOP/s")
}
