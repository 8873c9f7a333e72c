package prof

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"ucudnn/internal/obs"
)

// Test phases; registered once — the registry is process-global.
var (
	phA = Register("ucudnn_ph_test_alpha")
	phB = Register("ucudnn_ph_test_beta")
)

// resetAll restores the profiler's global state between tests.
func resetAll(t *testing.T) {
	t.Helper()
	Disable()
	SetMetrics(nil)
	SetLayer("")
	Reset()
	t.Cleanup(func() {
		Disable()
		SetMetrics(nil)
		SetLayer("")
		Reset()
	})
}

func TestRegisterValidation(t *testing.T) {
	mustPanic := func(name Phase, why string) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("Register(%q) did not panic (%s)", name, why)
			}
		}()
		Register(name)
	}
	mustPanic("gemm_sgemm", "missing prefix")
	mustPanic("ucudnn_ph", "no suffix segments")
	mustPanic("ucudnn_ph_Upper", "not snake_case")
	mustPanic("ucudnn_ph_test_alpha", "duplicate")

	found := 0
	for _, p := range Phases() {
		if p == "ucudnn_ph_test_alpha" || p == "ucudnn_ph_test_beta" {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("Phases() lists %d of the 2 test phases: %v", found, Phases())
	}
}

func TestDisabledHooksAreInert(t *testing.T) {
	resetAll(t)
	if got := Begin("k"); got != 0 {
		t.Fatalf("Begin while disabled = %d, want 0", got)
	}
	if got := Enter(); got != 0 {
		t.Fatalf("Enter while disabled = %d, want 0", got)
	}
	var ran atomic.Int32
	Launch(4, func(int) { ran.Add(1) })
	if ran.Load() != 4 {
		t.Fatalf("Launch(4) ran %d workers, want 4", ran.Load())
	}
	Exit(phA, 0)
	End(0)
	GrantWS(123)
	if rows := Snapshot(); len(rows) != 0 {
		t.Fatalf("disabled hooks recorded rows: %+v", rows)
	}
}

func TestAttribution(t *testing.T) {
	resetAll(t)
	Enable()
	SetLayer("conv1")
	start := Begin("Forward[test]")
	if start == 0 {
		t.Fatal("Begin returned the disabled token while enabled")
	}
	GrantWS(1 << 20)
	GrantWS(1 << 10) // lower grant must not move the high-watermark
	pt := Enter()
	spin()
	pt = Next(phA, pt)
	spin()
	Exit(phB, pt)
	End(start)

	rows := Snapshot()
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1: %+v", len(rows), rows)
	}
	r := rows[0]
	if r.Layer != "conv1" || r.Kernel != "Forward[test]" {
		t.Fatalf("row key = (%q, %q)", r.Layer, r.Kernel)
	}
	if r.Executions != 1 {
		t.Fatalf("executions = %d, want 1", r.Executions)
	}
	if r.WSHighWaterBytes != 1<<20 {
		t.Fatalf("ws high-watermark = %d, want %d", r.WSHighWaterBytes, 1<<20)
	}
	if len(r.Phases) != 2 {
		t.Fatalf("phases = %+v, want both test phases", r.Phases)
	}
	var sum int64
	for _, p := range r.Phases {
		if p.NS <= 0 || p.Count != 1 {
			t.Fatalf("phase %+v: want positive ns, count 1", p)
		}
		sum += p.NS
	}
	if sum != r.AttributedNS {
		t.Fatalf("attributed %d != phase sum %d", r.AttributedNS, sum)
	}
	// Serial path: measured is the kernel wall, and the two phase windows
	// tile a subset of it.
	if r.MeasuredNS != r.TotalNS {
		t.Fatalf("measured %d != total %d on a launch-free row", r.MeasuredNS, r.TotalNS)
	}
	if r.AttributedNS > r.TotalNS {
		t.Fatalf("attributed %d exceeds kernel wall %d", r.AttributedNS, r.TotalNS)
	}
	if r.Coverage <= 0 || r.Coverage > 1 {
		t.Fatalf("coverage = %v", r.Coverage)
	}
}

func TestOrphanRow(t *testing.T) {
	resetAll(t)
	Enable()
	// Phase window with no current kernel: lands on the unattributed row.
	Exit(phA, Enter())
	rows := Snapshot()
	if len(rows) != 1 || rows[0].Kernel != "(unattributed)" {
		t.Fatalf("rows = %+v, want a single unattributed row", rows)
	}
}

func TestImbalanceAccounting(t *testing.T) {
	resetAll(t)
	Enable()
	start := Begin("Kern")
	// Synthetic skewed launch: 4 workers over a 1000 ns wall, one worker
	// busy 400 ns and three 100 ns each.
	endLaunch(4, 1000, 700, 400)
	End(start)

	r := Snapshot()[0]
	if r.Launches != 1 {
		t.Fatalf("launches = %d, want 1", r.Launches)
	}
	if r.BusyNS != 700 || r.IdleNS != 4*1000-700 {
		t.Fatalf("busy/idle = %d/%d, want 700/%d", r.BusyNS, r.IdleNS, 4*1000-700)
	}
	want := 400.0 * 4 / 700.0 // max * workers / sum = 16/7
	if math.Abs(r.MaxImbalance-want) > 1e-4 || math.Abs(r.MeanImbalance-want) > 1e-4 {
		t.Fatalf("imbalance max=%v mean=%v, want %v", r.MaxImbalance, r.MeanImbalance, want)
	}
	if want := 700.0 / 4000.0; math.Abs(r.MeanBusyRatio-want) > 1e-9 {
		t.Fatalf("mean busy ratio = %v, want %v", r.MeanBusyRatio, want)
	}
	// Σbusy < wall: the launch ran no worker time beyond its own wall.
	if r.MeasuredNS != r.TotalNS {
		t.Fatalf("measured %d != total %d for a launch with busy < wall", r.MeasuredNS, r.TotalNS)
	}
}

func TestBalancedLaunchImbalanceIsOne(t *testing.T) {
	resetAll(t)
	Enable()
	start := Begin("Kern")
	endLaunch(4, 2500, 4*2500, 2500)
	End(start)
	r := Snapshot()[0]
	if math.Abs(r.MaxImbalance-1.0) > 1e-4 {
		t.Fatalf("balanced launch imbalance = %v, want 1.0", r.MaxImbalance)
	}
}

// TestLaunchAccountingRule pins the one accounting rule: a kernel's
// measured time is its wall plus, per launch, max(0, Σbusy − wall), so
// attributed <= measured whether phase windows are worker occupancy
// inside a launch or serial wall time around one.
func TestLaunchAccountingRule(t *testing.T) {
	resetAll(t)
	Enable()

	// Σbusy > wall: the excess worker time joins the measured total.
	start := Begin("Over")
	endLaunch(2, 1000, 1800, 1000)
	End(start)

	// A launch under a serial phase window with Σbusy < wall: the window
	// is wall time, and the launch adds nothing to measured.
	start = Begin("Under")
	pt := Enter()
	endLaunch(2, 1000, 600, 500)
	spin()
	Exit(phA, pt)
	End(start)

	// A real launch whose workers each record a phase window.
	start = Begin("Real")
	Launch(4, func(int) {
		pt := Enter()
		spin()
		Exit(phB, pt)
	})
	End(start)

	rows := map[string]RowSnap{}
	for _, r := range Snapshot() {
		rows[r.Kernel] = r
	}
	over, under, live := rows["Over"], rows["Under"], rows["Real"]
	if over.MeasuredNS != over.TotalNS+800 || over.BusyNS != 1800 || over.IdleNS != 200 {
		t.Errorf("busy > wall: measured %d (total %d), busy %d, idle %d; want total+800, 1800, 200",
			over.MeasuredNS, over.TotalNS, over.BusyNS, over.IdleNS)
	}
	if under.MeasuredNS != under.TotalNS || under.IdleNS != 1400 {
		t.Errorf("busy < wall: measured %d (total %d), idle %d; want total, 1400",
			under.MeasuredNS, under.TotalNS, under.IdleNS)
	}
	if live.Launches != 1 || live.BusyNS <= 0 {
		t.Errorf("real launch: launches %d, busy %d; want 1, > 0", live.Launches, live.BusyNS)
	}
	if live.AttributedNS > live.BusyNS {
		t.Errorf("real launch: worker windows %d exceed busy %d", live.AttributedNS, live.BusyNS)
	}
	for _, r := range []RowSnap{over, under, live} {
		if r.AttributedNS > r.MeasuredNS {
			t.Errorf("%s: attributed %d exceeds measured %d", r.Kernel, r.AttributedNS, r.MeasuredNS)
		}
	}
}

// TestHotPathAllocs pins the hot-path contract: zero allocations per
// hook, profiling disabled AND enabled.
func TestHotPathAllocs(t *testing.T) {
	resetAll(t)
	for _, enabled := range []bool{false, true} {
		if enabled {
			Enable()
			Begin("Kern")
		}
		name := map[bool]string{false: "disabled", true: "enabled"}[enabled]
		hooks := map[string]func(){
			"phase": func() {
				t := Enter()
				t = Next(phA, t)
				Exit(phB, t)
			},
			"launch": func() { Launch(1, noWork) },
			"grant":  func() { GrantWS(4096) },
		}
		for hook, f := range hooks {
			if n := testing.AllocsPerRun(100, f); n != 0 {
				t.Errorf("%s/%s: %v allocs/op, want 0", name, hook, n)
			}
		}
	}
}

func TestSetMetricsBridge(t *testing.T) {
	resetAll(t)
	reg := obs.NewRegistry()
	Enable()
	SetMetrics(reg)
	Begin("Kern")
	Exit(phA, Enter())
	Launch(2, func(int) { spin() })

	var sb strings.Builder
	if err := reg.WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, MetricPhaseSeconds) {
		t.Errorf("summary lacks %s:\n%s", MetricPhaseSeconds, out)
	}
	if !strings.Contains(out, MetricImbalance) {
		t.Errorf("summary lacks %s:\n%s", MetricImbalance, out)
	}
}

func TestPhaseTotals(t *testing.T) {
	resetAll(t)
	Enable()
	Begin("Kern")
	Exit(phA, Enter())
	Exit(phB, Enter())
	totals := PhaseTotals()
	found := map[string]bool{}
	for _, p := range totals {
		found[p.Phase] = true
		if p.NS <= 0 || p.Count != 1 {
			t.Errorf("total %+v: want positive ns, count 1", p)
		}
	}
	if !found["ucudnn_ph_test_alpha"] || !found["ucudnn_ph_test_beta"] {
		t.Fatalf("totals missing test phases: %+v", totals)
	}
	for i := 1; i < len(totals); i++ {
		if totals[i-1].NS < totals[i].NS {
			t.Fatalf("totals not sorted heaviest-first: %+v", totals)
		}
	}
}

func TestDumpSection(t *testing.T) {
	resetAll(t)
	var sb strings.Builder
	dumpSection(&sb)
	if !strings.Contains(sb.String(), "profiling disabled") {
		t.Fatalf("disabled dump = %q", sb.String())
	}
	Enable()
	Begin("Kern")
	Exit(phA, Enter())
	sb.Reset()
	dumpSection(&sb)
	if !strings.Contains(sb.String(), "ucudnn_ph_test_alpha") {
		t.Fatalf("dump lacks the recorded phase:\n%s", sb.String())
	}
}

func noWork(int) {}

// spin burns a little CPU so phase windows are strictly positive.
func spin() {
	x := 1.0
	for i := 0; i < 1000; i++ {
		x *= 1.0000001
	}
	if x < 0 {
		panic("unreachable")
	}
}
