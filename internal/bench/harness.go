// Package bench regenerates every table and figure of the paper's
// evaluation (§IV): workload construction, parameter sweeps, baselines,
// and text/CSV emitters that print the same rows and series the paper
// reports. Absolute times come from the deterministic device model
// (internal/device); EXPERIMENTS.md records paper-vs-measured shape
// comparisons.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"ucudnn/internal/conv"
	"ucudnn/internal/core"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/device"
	"ucudnn/internal/dnn"
	"ucudnn/internal/obs"
	"ucudnn/internal/rig"
	"ucudnn/internal/tensor"
	"ucudnn/internal/trace"
	"ucudnn/internal/zoo"
)

// Config parameterizes one experiment run.
type Config struct {
	// Device is the simulated GPU (default P100, as most paper figures).
	Device device.Spec
	// Batch overrides the experiment's default mini-batch size when > 0.
	Batch int
	// Iters is the number of timed iterations (default 3).
	Iters int
	// Out receives the rendered table.
	Out io.Writer
	// CSV optionally receives machine-readable rows.
	CSV io.Writer
	// Metrics, when non-nil, accumulates µ-cuDNN observability metrics
	// across every handle the experiments create.
	Metrics *obs.Registry
	// Trace, when non-nil, receives kernel spans (track 0) and layer spans
	// (track 1) from every timed network run.
	Trace *trace.Recorder
}

func (c Config) withDefaults() Config {
	if c.Device.Name == "" {
		c.Device = device.P100
	}
	if c.Iters <= 0 {
		c.Iters = 3
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

// MiB is a byte count helper.
const MiB = int64(1 << 20)

// Conv2 returns AlexNet's conv2 shape at the given batch, the paper's
// running example.
func Conv2(n int) tensor.ConvShape {
	return tensor.ConvShape{
		In:     tensor.Shape{N: n, C: 64, H: 27, W: 27},
		Filt:   tensor.Filter{K: 192, C: 64, R: 5, S: 5},
		Params: tensor.ConvParams{PadH: 2, PadW: 2, StrideH: 1, StrideW: 1},
	}
}

// alexNetFwdShapes lists the five convolution layers of single-column
// AlexNet at batch n (used by the kernel-level experiments).
func alexNetFwdShapes(n int) []struct {
	Name  string
	Shape tensor.ConvShape
} {
	mk := func(c, h, k, r, stride, pad int) tensor.ConvShape {
		return tensor.ConvShape{
			In:     tensor.Shape{N: n, C: c, H: h, W: h},
			Filt:   tensor.Filter{K: k, C: c, R: r, S: r},
			Params: tensor.ConvParams{PadH: pad, PadW: pad, StrideH: stride, StrideW: stride},
		}
	}
	return []struct {
		Name  string
		Shape tensor.ConvShape
	}{
		{"conv1", mk(3, 224, 64, 11, 4, 2)},
		{"conv2", mk(64, 27, 192, 5, 1, 2)},
		{"conv3", mk(192, 13, 384, 3, 1, 1)},
		{"conv4", mk(384, 13, 256, 3, 1, 1)},
		{"conv5", mk(256, 13, 256, 3, 1, 1)},
	}
}

// newModelHandle builds a model-only cuDNN handle for cfg's device.
func newModelHandle(cfg Config) *cudnn.Handle {
	return cudnn.NewHandle(cfg.Device, cudnn.ModelOnlyBackend)
}

// recipe describes zoo network name as a model-only timing run in mode
// "cudnn", "wr" or "wd": limit is the per-kernel workspace limit under
// cudnn and wr, the total under wd.
func recipe(cfg Config, name, mode string, policy core.Policy, limit int64, batch int) rig.Config {
	return rig.Config{Net: name, Batch: batch, Device: cfg.Device.Name, Backend: cudnn.ModelOnlyBackend,
		Mode: mode, Policy: policy.String(), WS: limit, Total: limit}
}

// netRun times network name under the given policy/limits and returns
// the report plus the µ-cuDNN handle (nil in cudnn mode), recording into
// cfg's metrics registry and trace.
func netRun(cfg Config, name string, mode string, policy core.Policy, limit int64, batch int) (*dnn.TimingReport, *core.Handle, error) {
	rc := recipe(cfg, name, mode, policy, limit, batch)
	rc.Metrics = cfg.Metrics
	r, err := rig.Build(rc)
	if err != nil {
		return nil, nil, err
	}
	r.Inner.SetTrace(cfg.Trace)
	r.Ctx.Trace = cfg.Trace
	rep, err := r.Net.Time(cfg.Iters)
	if err != nil {
		return nil, nil, err
	}
	return rep, r.UC, nil
}

// table is a small helper accumulating aligned text plus CSV rows.
type table struct {
	cfg    Config
	tw     *tabwriter.Writer
	header []string
}

func newTable(cfg Config, title string, cols ...string) *table {
	fmt.Fprintf(cfg.Out, "\n== %s ==\n", title)
	t := &table{cfg: cfg, tw: tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0), header: cols}
	fmt.Fprintln(t.tw, strings.Join(cols, "\t"))
	if cfg.CSV != nil {
		fmt.Fprintln(cfg.CSV, strings.Join(cols, ","))
	}
	return t
}

func (t *table) row(vals ...string) {
	fmt.Fprintln(t.tw, strings.Join(vals, "\t"))
	if t.cfg.CSV != nil {
		fmt.Fprintln(t.cfg.CSV, strings.Join(vals, ","))
	}
}

func (t *table) flush() { t.tw.Flush() }

func ms(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d)/float64(time.Millisecond)) }

func mib(b int64) string { return fmt.Sprintf("%.1f", float64(b)/float64(MiB)) }

// Experiments maps experiment names to their runners.
var Experiments = map[string]func(Config) error{
	"fig1":        Fig1,
	"fig8":        Fig8,
	"fig9":        Fig9,
	"fig10":       Fig10,
	"fig11":       Fig11,
	"fig12":       Fig12,
	"fig13":       Fig13,
	"fig14":       Fig14,
	"table1":      Table1,
	"opttime":     OptTime,
	"summary":     Summary,
	"ablation":    Ablation,
	"scaling":     Scaling,
	"concurrency": Concurrency,
}

// Names returns the experiment names in stable order.
func Names() []string {
	var out []string
	for k := range Experiments {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Run dispatches one experiment by name.
func Run(name string, cfg Config) error {
	f, ok := Experiments[name]
	if !ok {
		return fmt.Errorf("bench: unknown experiment %q (have %s)", name, strings.Join(Names(), ", "))
	}
	return f(cfg.withDefaults())
}

// convOnly sums convolution-layer time in a report.
func convOnly(rep *dnn.TimingReport) time.Duration {
	return rep.SumMatching(zoo.IsConvLayer)
}

// bestPerf returns the fastest algorithm within a limit, via a bencher.
func bestPerf(h *cudnn.Handle, op conv.Op, cs tensor.ConvShape, limit int64) (cudnn.AlgoPerf, error) {
	return h.PickAlgo(op, cs, cudnn.SpecifyWorkspaceLimit, limit)
}
