package bench

import (
	"fmt"
	"time"

	"ucudnn/internal/core"
	"ucudnn/internal/parallel"
	"ucudnn/internal/rig"
)

// Scaling is an extension experiment beyond the paper's figures,
// quantifying its *introduction*: data-parallel frameworks want large
// per-GPU batches, so per-GPU kernel speedups from micro-batching carry
// through to cluster throughput. AlexNet's per-GPU iteration (batch 256,
// 64 MiB workspace) runs under plain cuDNN and under µ-cuDNN, and both
// compose with a ring-all-reduce model across 1-8 GPUs.
func Scaling(cfg Config) error {
	cfg = cfg.withDefaults()
	batch := cfg.Batch
	if batch <= 0 {
		batch = 256
	}

	type variant struct {
		name     string
		fwd, bwd time.Duration
	}
	var variants []variant
	var gradBytes int64
	for _, v := range []struct {
		name   string
		policy core.Policy
	}{
		{"cuDNN (undivided)", core.PolicyUndivided},
		{"µ-cuDNN (all)", core.PolicyAll},
	} {
		rep, uc, err := netRun(cfg, "alexnet", "wr", v.policy, 64*MiB, batch)
		if err != nil {
			return err
		}
		_ = uc
		variants = append(variants, variant{name: v.name, fwd: rep.TotalForward(), bwd: rep.TotalBackward()})
		if gradBytes == 0 {
			// Gradient volume = parameter bytes (~61M floats for AlexNet).
			r, err := rig.Build(recipe(cfg, "alexnet", "cudnn", core.PolicyUndivided, 64*MiB, batch))
			if err != nil {
				return err
			}
			if err := r.Net.Setup(); err != nil {
				return err
			}
			for _, p := range r.Net.Params() {
				gradBytes += int64(len(p.Data)) * 4
			}
		}
	}

	t := newTable(cfg, fmt.Sprintf("Scaling (extension): AlexNet data-parallel, per-GPU N=%d, %s, grad %.0f MiB, ring all-reduce @25 GB/s",
		batch, cfg.Device.Name, float64(gradBytes)/float64(MiB)),
		"gpus", "variant", "iter_ms", "iter_ms_serial", "images_per_s", "eff_overlap", "eff_serial", "cluster_speedup")
	for _, gpus := range []int{1, 2, 4, 8} {
		c := parallel.Cluster{GPUs: gpus, LinkBW: 25e9, LinkLatency: 2 * time.Microsecond}
		var baseTp float64
		for i, v := range variants {
			iter := c.IterationTime(v.fwd, v.bwd, gradBytes, true)
			serial := c.IterationTime(v.fwd, v.bwd, gradBytes, false)
			tp := c.Throughput(batch, iter)
			if i == 0 {
				baseTp = tp
			}
			t.row(fmt.Sprintf("%d", gpus), v.name, ms(iter), ms(serial),
				fmt.Sprintf("%.0f", tp),
				fmt.Sprintf("%.2f", c.Efficiency(v.fwd, v.bwd, gradBytes, true)),
				fmt.Sprintf("%.2f", c.Efficiency(v.fwd, v.bwd, gradBytes, false)),
				fmt.Sprintf("%.2fx", tp/baseTp))
		}
	}
	t.flush()
	fmt.Fprintln(cfg.Out, "note: µ-cuDNN shortens the backward pass that hides the all-reduce; when")
	fmt.Fprintln(cfg.Out, "communication is exposed (serial column), its relative cost grows — large")
	fmt.Fprintln(cfg.Out, "per-GPU batches plus fast kernels are exactly the regime the paper targets.")
	return nil
}
