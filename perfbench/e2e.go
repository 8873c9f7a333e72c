package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// setupReps is how many times a run sets the workload up from scratch;
// setup_s is the median. minIters is the fewest timed iterations a run
// makes, however long they take.
const (
	setupReps = 3
	minIters  = 4
)

// setUp builds the workload and runs its first iteration, which is where
// WR plans and workspace arenas are created lazily; the returned time
// spans both. The plan workload also checks the plan it made.
func (b *run) setUp(o rigOpts) (*rig, time.Duration, error) {
	// Drop the previous rig and hand its memory back to the OS now, so
	// every set-up starts from the same heap and no background scavenging
	// overlaps the timing.
	debug.FreeOSMemory()
	t0 := time.Now()
	sp := o.rec.begin("setup")
	defer o.rec.end(sp)
	r, err := build(b.w, b.seed, o)
	if err != nil {
		b.attempted++
		return nil, 0, err
	}
	if !b.w.train() {
		b.attempted++
		b.checkPlan(r)
	}
	b.attempted++
	if _, _, err := r.iterate(); err != nil {
		return nil, 0, err
	}
	return r, time.Since(t0), nil
}

// step runs one measured iteration of r and returns its wall time.
// Training workloads collect garbage first, outside the timing, so the
// peak heap does not depend on how many iterations fit a run. Every
// iteration must advance the modeled clock by the same amount as the
// rig's first measured one; one that does not counts as failed.
func (b *run) step(r *rig) (time.Duration, error) {
	if r.w.train() {
		runtime.GC()
	}
	b.attempted++
	wall, modeled, err := r.iterate()
	if err != nil {
		return 0, err
	}
	if r.steps == 0 {
		r.modeled = modeled
	} else if modeled != r.modeled {
		b.fail(fmt.Errorf("iteration %d advanced the modeled clock by %v, the first by %v", r.steps, modeled, r.modeled))
	}
	r.steps++
	return wall, nil
}

// iterations steps r until budget has passed and at least min
// iterations have run, and returns their wall times in seconds.
func (b *run) iterations(r *rig, budget time.Duration, min int) ([]float64, error) {
	var walls []float64
	start := time.Now()
	for len(walls) < min || time.Since(start) < budget {
		wall, err := b.step(r)
		if err != nil {
			return walls, err
		}
		walls = append(walls, wall.Seconds())
	}
	return walls, nil
}

// setUps sets the workload up setupReps times, keeping the last rig, and
// reports setup_s as the median.
func (b *run) setUps() (*rig, error) {
	var times []float64
	var r *rig
	for i := 0; i < setupReps; i++ {
		r = nil
		var d time.Duration
		var err error
		if r, d, err = b.setUp(rigOpts{}); err != nil {
			return nil, err
		}
		times = append(times, d.Seconds())
	}
	b.set("setup_s", median(times), "s")
	fmt.Printf("setup: %d set-ups, median %.4f s, all %.4f\n", len(times), median(times), times)
	return r, nil
}

// timed runs the timed iterations and reports the end-to-end metrics
// they give.
func (b *run) timed(r *rig) error {
	walls, err := b.iterations(r, b.seconds, minIters)
	if err != nil {
		return err
	}
	med := median(walls)
	b.set("samples_per_s", float64(b.w.Batch)/med, "1/s")
	b.set("device_mem_peak_mib", float64(r.inner.Mem().Peak())/(1<<20), "MiB")
	b.set("host_rss_peak_mib", maxRSSMiB(), "MiB")
	b.note("iter_s_median", med, "s")
	b.note("iterations", float64(len(walls)), "count")
	if p := tailPercentile(len(walls)); p > 0 {
		b.note(fmt.Sprintf("iter_s_p%g", p), quantile(walls, p/100), "s")
	}
	b.note("modeled_iter_ms", float64(r.modeled)/float64(time.Millisecond), "ms")
	if len(walls) <= 20 {
		fmt.Printf("timed: %d iterations, median %.4f s, all %.4f\n", len(walls), med, walls)
	} else {
		fmt.Printf("timed: %d iterations, median %.4f s\n", len(walls), med)
	}
	return nil
}

// trainE2E is the untraced run of a training workload.
func (b *run) trainE2E() error {
	r, err := b.setUps()
	if err != nil {
		return err
	}
	if err := b.timed(r); err != nil {
		return err
	}
	got := r.outputs()
	r = nil
	return b.checkOutputs(got)
}

// planE2E is the untraced run of the planning workload: each set-up
// plans the network, and the timed iterations execute the plan on the
// model-only backend.
func (b *run) planE2E() error {
	r, err := b.setUps()
	if err != nil {
		return err
	}
	return b.timed(r)
}

// checkOutputs compares a training rig's outputs with a reference run of
// the same seeded network on the plain cuDNN handle. A mismatch fails
// the last iteration.
func (b *run) checkOutputs(got outputs) error {
	runtime.GC()
	ref, err := build(b.w, b.seed, rigOpts{reference: true})
	if err != nil {
		return fmt.Errorf("building the reference: %w", err)
	}
	if _, _, err := ref.iterate(); err != nil {
		return fmt.Errorf("reference iteration: %w", err)
	}
	want := ref.outputs()
	var errs []string
	for i := range want.data {
		if i < len(got.data) && len(got.data[i]) == len(want.data[i]) {
			errs = append(errs, fmt.Sprintf("%s %.2g", want.names[i], relL2(got.data[i], want.data[i])))
		}
	}
	fmt.Printf("correctness: relative L2 error against the reference (tolerance %g): %s\n",
		gradTolerance, strings.Join(errs, ", "))
	if err := compareOutputs(got, want, gradTolerance); err != nil {
		b.fail(fmt.Errorf("correctness: %w", err))
	}
	return nil
}

// checkPlan checks the WD plan a set-up made: its workspace fits the
// total budget and every kernel's configuration covers its batch. A
// violation fails the plan.
func (b *run) checkPlan(r *rig) {
	st := r.uc.WDStats()
	if st == nil {
		b.fail(fmt.Errorf("plan: WD did not run"))
		return
	}
	if total := b.w.TotalMiB << 20; st.TotalWorkspace > total {
		b.fail(fmt.Errorf("plan: WD workspace %d bytes exceeds the %d-byte budget", st.TotalWorkspace, total))
		return
	}
	for _, p := range st.Plans {
		if err := p.Config.Validate(p.Kernel.Shape.In.N); err != nil {
			b.fail(fmt.Errorf("plan: %v: %w", p.Kernel, err))
			return
		}
	}
	if prev, ok := b.info["ilp_nodes"]; ok && prev.Value != float64(st.ILPNodes) {
		b.fail(fmt.Errorf("plan: the ILP explored %d nodes, an earlier set-up %g", st.ILPNodes, prev.Value))
		return
	}
	b.note("ilp_nodes", float64(st.ILPNodes), "count")
	b.note("wd_workspace_mib", float64(st.TotalWorkspace)/(1<<20), "MiB")
}
