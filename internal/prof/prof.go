// Package prof is the µ-cuDNN per-phase kernel profiler: an
// always-compiled, zero-allocation layer that attributes kernel time to
// the phases inside each convolution algorithm (im2col vs SGEMM,
// Winograd transforms vs element-wise work, forward vs inverse FFT),
// accounts per-worker busy/idle time for every parallel launch so
// stripe load imbalance is a first-class number, and tracks workspace
// high-watermarks per kernel plan.
//
// The recording paths mirror the flight recorder's contract: when
// profiling is disabled every hook is an atomic load plus a branch, and
// when enabled the hot-path hooks (Enter/Exit/Next, GrantWS, and a
// one-worker Launch) touch only fixed atomic slots — no allocation, no
// locks, //ucudnn:hotpath clean. The warm-path hooks (Begin/End around
// a whole kernel execution, SetLayer from the framework layer walk) may
// take a mutex and allocate; they run once per kernel call, not once
// per tile. A multi-worker Launch allocates its goroutines.
//
// Phase names are compile-time ucudnn_ph_* snake_case constants
// (enforced by the phasename analyzer, mirroring the flight recorder's
// ucudnn_ev_* contract) registered once at package init:
//
//	const PhGemmSgemm prof.Phase = "ucudnn_ph_gemm_sgemm"
//	var phGemmSgemm = prof.Register(PhGemmSgemm)
//
// Accounting model. A kernel execution (core.Handle.execute) brackets
// with Begin/End: the wall time between them is the kernel's total.
// Every parallel launch inside it goes through Launch, the one
// fork-join primitive, which times each worker's share as a busy
// window. One rule then gives the kernel's "measured" time: its wall
// time plus, for each launch, max(0, Σbusy − wall) — the worker time a
// launch ran beyond its own wall. A phase window is either serial wall
// time or the occupancy of a worker inside a launch, so the attributed
// sum never exceeds measured by construction. At one worker no launch
// happens and measured is the wall time.
package prof

import (
	"fmt"
	"regexp"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ucudnn/internal/flight"
	"ucudnn/internal/obs"
)

// Phase is a profiler phase name. Names are compile-time ucudnn_ph_*
// snake_case constants (enforced by the phasename analyzer), so the
// phase universe is enumerable statically.
type Phase string

// Kind identifies a registered phase; the zero Kind is invalid.
type Kind uint8

// maxKinds bounds the phase universe; registration panics beyond it.
// Every row carries a fixed [maxKinds] accumulator pair, so the bound
// keeps rows small while leaving ample headroom over the ~dozen phases
// the conv algorithms define.
const maxKinds = 64

// phaseRe is the naming scheme Register enforces (mirrored by the
// phasename analyzer's compile-time rule).
var phaseRe = regexp.MustCompile(`^ucudnn_ph(_[a-z0-9]+)+$`)

var (
	regMu sync.Mutex
	names []Phase // index Kind-1
)

// Register assigns a Kind to name. It is meant to be called from
// package init functions; it panics on a duplicate or malformed name,
// so a bad registration fails at program start, not at report time.
func Register(name Phase) Kind {
	regMu.Lock()
	defer regMu.Unlock()
	if !phaseRe.MatchString(string(name)) {
		panic(fmt.Sprintf("prof: phase name %q does not match the ucudnn_ph_* snake_case scheme", name))
	}
	for _, n := range names {
		if n == name {
			panic(fmt.Sprintf("prof: phase name %q registered twice", name))
		}
	}
	if len(names) >= maxKinds {
		panic(fmt.Sprintf("prof: too many phases (max %d)", maxKinds))
	}
	names = append(names, name)
	return Kind(len(names))
}

// Phases returns the registered phase names in registration order.
func Phases() []Phase {
	regMu.Lock()
	defer regMu.Unlock()
	return append([]Phase(nil), names...)
}

// phaseName returns the registered name of k ("" for unknown kinds).
func phaseName(k Kind) string {
	regMu.Lock()
	defer regMu.Unlock()
	if k < 1 || int(k) > len(names) {
		return ""
	}
	return string(names[k-1])
}

// clockBase anchors the monotonic clock; nanotime readings are offsets
// from it, shifted so a live reading is never the zero "disabled"
// token.
var clockBase = time.Now()

// nanotime returns a monotonic timestamp in nanoseconds (never 0: the
// hooks use 0 as the "profiling was disabled at Enter" token).
//
//ucudnn:hotpath
func nanotime() int64 {
	return int64(time.Since(clockBase)) + 1
}

// on gates every recording hook.
var on atomic.Bool

// Enable turns profiling on.
func Enable() { on.Store(true) }

// Disable turns profiling off; the hooks become an atomic load plus a
// branch.
func Disable() { on.Store(false) }

// Enabled reports whether profiling is on.
func Enabled() bool { return on.Load() }

// row accumulates one (layer, kernel) attribution row. All counters are
// atomic: phase windows and worker hooks fire concurrently from kernel
// workers.
type row struct {
	layer, kernel string

	execs atomic.Int64 // kernel executions (Begin calls)
	total atomic.Int64 // Begin..End wall ns

	phaseNS [maxKinds]atomic.Int64
	phaseN  [maxKinds]atomic.Int64

	launches atomic.Int64 // parallel launches
	busyNS   atomic.Int64 // Σ per-worker busy over launches
	idleNS   atomic.Int64 // Σ max(0, workers*wall - busy) over launches
	excessNS atomic.Int64 // Σ max(0, busy - wall) over launches

	imbMaxMicro atomic.Int64 // max over launches of imbalance * 1e6
	imbSumMicro atomic.Int64 // Σ imbalance * 1e6 (mean = sum / imbN)
	imbN        atomic.Int64

	wsHigh atomic.Int64 // workspace grant high-watermark, bytes
}

// Unattributed is the kernel name of the row that absorbs records made
// outside any kernel execution.
const Unattributed = "(unattributed)"

var (
	rowMu sync.Mutex
	rows  = map[string]*row{}
	// orphan absorbs phase and launch records made while no kernel is
	// current (framework GEMMs outside conv kernels, direct conv.Run
	// calls in tests). Pre-built so the hot path never allocates.
	orphan = &row{kernel: Unattributed}
	// current is the row of the kernel now executing; kernel executions
	// are serialized by core.Handle.execMu, so a single slot suffices.
	current atomic.Pointer[row]

	layerMu  sync.Mutex
	curLayer string
)

// obs bridge, pre-resolved by SetMetrics so the hot path is a pointer
// load plus the (allocation-free) Observe/Set.
var (
	phaseHist [maxKinds]atomic.Pointer[obs.Histogram]
	imbGauge  atomic.Pointer[obs.Gauge]
)

// MetricPhaseSeconds is the per-phase duration histogram family,
// labelled by phase name.
const MetricPhaseSeconds = "ucudnn_kernel_phase_seconds"

// MetricImbalance is the stripe load-imbalance gauge: the last parallel
// launch's max/mean per-worker busy ratio (1.0 = perfectly balanced).
const MetricImbalance = "ucudnn_worker_imbalance_ratio"

// SetMetrics points the profiler's exported series at reg: one
// MetricPhaseSeconds histogram per registered phase and the
// MetricImbalance gauge. A nil registry detaches them.
func SetMetrics(reg *obs.Registry) {
	regMu.Lock()
	defer regMu.Unlock()
	for i := range names {
		if reg == nil {
			phaseHist[i].Store(nil)
			continue
		}
		phaseHist[i].Store(reg.Histogram(MetricPhaseSeconds, obs.DurationBuckets,
			obs.L("phase", string(names[i]))))
	}
	if reg == nil {
		imbGauge.Store(nil)
		return
	}
	imbGauge.Store(reg.Gauge(MetricImbalance))
}

// SetLayer names the framework layer whose kernels execute next; Begin
// joins it into the attribution key. The framework layer walk calls it
// around each layer ("" to clear).
func SetLayer(name string) {
	layerMu.Lock()
	curLayer = name
	layerMu.Unlock()
}

// Begin opens a kernel execution attributed to (current layer, kernel)
// and returns its start token (0 when profiling is disabled — End with
// a zero token is a no-op). Warm path: called once per kernel call,
// under core's execution lock.
func Begin(kernel string) int64 {
	if !on.Load() {
		return 0
	}
	layerMu.Lock()
	layer := curLayer
	layerMu.Unlock()
	key := layer + "\x00" + kernel
	rowMu.Lock()
	r, ok := rows[key]
	if !ok {
		r = &row{layer: layer, kernel: kernel}
		rows[key] = r
	}
	rowMu.Unlock()
	r.execs.Add(1)
	current.Store(r)
	return nanotime()
}

// End closes the kernel execution opened by Begin.
func End(start int64) {
	if start != 0 {
		if r := current.Load(); r != nil {
			r.total.Add(nanotime() - start)
		}
	}
	current.Store(nil)
}

// GrantWS records a workspace grant against the current kernel's
// high-watermark.
//
//ucudnn:hotpath
func GrantWS(bytes int64) {
	if !on.Load() {
		return
	}
	r := current.Load()
	if r == nil {
		return
	}
	casMax(&r.wsHigh, bytes)
}

// Enter opens a phase window and returns its start token (0 when
// profiling is disabled).
//
//ucudnn:hotpath
func Enter() int64 {
	if !on.Load() {
		return 0
	}
	return nanotime()
}

// Exit closes a phase window, attributing its elapsed time to phase k
// on the current kernel row. A zero start token or the zero Kind is a
// no-op.
//
//ucudnn:hotpath
func Exit(k Kind, start int64) {
	if start == 0 {
		return
	}
	record(k, nanotime()-start)
}

// Next closes phase k and opens the next phase window with a single
// clock reading, so chained phases tile their region without gaps.
//
//ucudnn:hotpath
func Next(k Kind, start int64) int64 {
	if start == 0 {
		return 0
	}
	now := nanotime()
	record(k, now-start)
	return now
}

//ucudnn:hotpath
func record(k Kind, d int64) {
	if k < 1 || int(k) > maxKinds {
		return
	}
	r := current.Load()
	if r == nil {
		r = orphan
	}
	r.phaseNS[k-1].Add(d)
	r.phaseN[k-1].Add(1)
	h := phaseHist[k-1].Load()
	h.Observe(float64(d) * 1e-9)
}

// DefaultWorkers is the launch width when no cap is set: GOMAXPROCS.
// The conv engine's MaxWorkers and blas's automatic SGEMM both default
// to it.
//
//ucudnn:hotpath
func DefaultWorkers() int {
	//ucudnn:allow hotpathcall -- GOMAXPROCS(0) is a read-only scheduler query; it does not allocate
	return runtime.GOMAXPROCS(0)
}

// Launch runs f(w) for every worker w in [0, workers) and returns when
// all have finished: worker 0 inline on the calling goroutine, the rest
// on goroutines of their own. It is the one fork-join primitive of the
// kernel engine and the SGEMM, so every parallel launch is accounted
// here: with profiling on, each worker's f(w) is one busy window, and
// closing the launch charges its busy/idle time, imbalance and
// max(0, Σbusy − wall) to the current kernel row. workers <= 1 is a
// plain call: no launch is recorded and nothing is allocated.
func Launch(workers int, f func(w int)) {
	if workers <= 1 {
		work(f, 0) // no launch is recorded; the busy window is dropped
		return
	}
	l := launch{start: Enter()}
	l.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		//ucudnn:allow hotpathcall -- a multi-worker launch forks by design; callers on the zero-alloc path launch one worker, which runs inline
		go func(w int) { l.add(work(f, w)); l.wg.Done() }(w)
	}
	l.add(work(f, 0))
	l.wg.Wait()
	if l.start != 0 {
		endLaunch(workers, nanotime()-l.start, l.busy.Load(), l.maxBusy.Load())
	}
}

// launch is one Launch's shared state: the join and the busy sums its
// workers accumulate.
type launch struct {
	wg            sync.WaitGroup
	start         int64 // Enter token; 0 = profiling was off at launch
	busy, maxBusy atomic.Int64
}

// add accumulates one worker's busy window.
//
//ucudnn:hotpath
func (l *launch) add(d int64) {
	l.busy.Add(d)
	casMax(&l.maxBusy, d)
}

// work runs worker w's share of a launch and returns it as a busy
// window (0 with profiling off).
func work(f func(w int), w int) int64 {
	t := Enter()
	//ucudnn:allow hotpathcall -- f is the launching kernel's own work, held to its caller's hot-path contract
	f(w)
	if t == 0 {
		return 0
	}
	return nanotime() - t
}

// endLaunch charges a closed launch of the given worker count, wall
// time and busy sums to the current kernel row (the unattributed row
// outside any kernel) and records its load imbalance (max/mean
// per-worker busy ratio).
//
//ucudnn:hotpath
func endLaunch(workers int, wall, busy, maxBusy int64) {
	r := current.Load()
	if r == nil {
		r = orphan
	}
	imb := 1.0
	if busy > 0 {
		imb = float64(maxBusy) * float64(workers) / float64(busy)
	}
	imbMicro := int64(imb * 1e6)
	r.launches.Add(1)
	r.busyNS.Add(busy)
	r.idleNS.Add(max(0, int64(workers)*wall-busy))
	r.excessNS.Add(max(0, busy-wall))
	casMax(&r.imbMaxMicro, imbMicro)
	r.imbSumMicro.Add(imbMicro)
	r.imbN.Add(1)
	g := imbGauge.Load()
	g.Set(imb)
	flight.Rec(evLaunchWindow, int64(workers), busy, wall, 0)
}

//ucudnn:hotpath
func casMax(v *atomic.Int64, x int64) {
	for {
		old := v.Load()
		if x <= old || v.CompareAndSwap(old, x) {
			return
		}
	}
}

// Reset discards every accumulated row (tests; the snapshot readers
// tolerate concurrent recording, so Reset during a run merely drops
// in-flight attributions).
func Reset() {
	rowMu.Lock()
	rows = map[string]*row{}
	rowMu.Unlock()
	current.Store(nil)
	zeroRow(orphan)
}

func zeroRow(r *row) {
	r.execs.Store(0)
	r.total.Store(0)
	for i := range r.phaseNS {
		r.phaseNS[i].Store(0)
		r.phaseN[i].Store(0)
	}
	r.launches.Store(0)
	r.busyNS.Store(0)
	r.idleNS.Store(0)
	r.excessNS.Store(0)
	r.imbMaxMicro.Store(0)
	r.imbSumMicro.Store(0)
	r.imbN.Store(0)
	r.wsHigh.Store(0)
}

// PhaseSnap is one phase's share of a row.
type PhaseSnap struct {
	Phase string `json:"phase"`
	NS    int64  `json:"ns"`
	Count int64  `json:"count"`
}

// RowSnap is one (layer, kernel) attribution row, as read by Snapshot.
type RowSnap struct {
	// Layer is the framework layer name ("" outside a layer walk);
	// Kernel is the kernel identity string (Unattributed for records
	// made outside any kernel execution).
	Layer  string `json:"layer"`
	Kernel string `json:"kernel"`
	// Executions counts Begin/End brackets; TotalNS is their wall sum.
	Executions int64 `json:"executions"`
	TotalNS    int64 `json:"total_ns"`
	// AttributedNS is the sum over phases; MeasuredNS is the occupancy
	// denominator (the wall plus each launch's max(0, busy - wall));
	// Coverage is their ratio.
	AttributedNS int64   `json:"attributed_ns"`
	MeasuredNS   int64   `json:"measured_ns"`
	Coverage     float64 `json:"coverage"`
	// Phases lists the row's nonzero phases, heaviest first.
	Phases []PhaseSnap `json:"phases"`
	// Launch accounting over every parallel launch.
	Launches      int64   `json:"launches"`
	BusyNS        int64   `json:"busy_ns"`
	IdleNS        int64   `json:"idle_ns"`
	MeanBusyRatio float64 `json:"mean_busy_ratio"`
	MaxImbalance  float64 `json:"max_imbalance"`
	MeanImbalance float64 `json:"mean_imbalance"`
	// WSHighWaterBytes is the largest workspace grant the row's kernel
	// executions actually received.
	WSHighWaterBytes int64 `json:"ws_high_water_bytes"`
}

// used reports whether the row recorded anything.
func (r *row) used() bool {
	if r.execs.Load() != 0 || r.launches.Load() != 0 {
		return true
	}
	for i := range r.phaseN {
		if r.phaseN[i].Load() != 0 {
			return true
		}
	}
	return false
}

func (r *row) snap() RowSnap {
	s := RowSnap{
		Layer:            r.layer,
		Kernel:           r.kernel,
		Executions:       r.execs.Load(),
		TotalNS:          r.total.Load(),
		Launches:         r.launches.Load(),
		BusyNS:           r.busyNS.Load(),
		IdleNS:           r.idleNS.Load(),
		WSHighWaterBytes: r.wsHigh.Load(),
	}
	for i := range r.phaseNS {
		ns, n := r.phaseNS[i].Load(), r.phaseN[i].Load()
		if n == 0 && ns == 0 {
			continue
		}
		s.Phases = append(s.Phases, PhaseSnap{Phase: phaseName(Kind(i + 1)), NS: ns, Count: n})
		s.AttributedNS += ns
	}
	sort.Slice(s.Phases, func(a, b int) bool {
		if s.Phases[a].NS != s.Phases[b].NS {
			return s.Phases[a].NS > s.Phases[b].NS
		}
		return s.Phases[a].Phase < s.Phases[b].Phase
	})
	s.MeasuredNS = s.TotalNS + r.excessNS.Load()
	if s.MeasuredNS > 0 {
		s.Coverage = float64(s.AttributedNS) / float64(s.MeasuredNS)
	}
	if tot := s.BusyNS + s.IdleNS; tot > 0 {
		s.MeanBusyRatio = float64(s.BusyNS) / float64(tot)
	}
	s.MaxImbalance = float64(r.imbMaxMicro.Load()) * 1e-6
	if n := r.imbN.Load(); n > 0 {
		s.MeanImbalance = float64(r.imbSumMicro.Load()) / float64(n) * 1e-6
	}
	return s
}

// Snapshot returns every attribution row, sorted by (layer, kernel),
// with the unattributed row (if any) last. It also records a
// ucudnn_ev_profile_snapshot flight event.
func Snapshot() []RowSnap {
	rowMu.Lock()
	rs := make([]*row, 0, len(rows))
	for _, r := range rows {
		rs = append(rs, r)
	}
	rowMu.Unlock()
	out := make([]RowSnap, 0, len(rs)+1)
	for _, r := range rs {
		out = append(out, r.snap())
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Layer != out[j].Layer {
			return out[i].Layer < out[j].Layer
		}
		return out[i].Kernel < out[j].Kernel
	})
	if orphan.used() {
		out = append(out, orphan.snap())
	}
	var attributed, measured int64
	for i := range out {
		attributed += out[i].AttributedNS
		measured += out[i].MeasuredNS
	}
	recSnapshot(int64(len(out)), int64(len(Phases())), attributed, measured)
	return out
}
