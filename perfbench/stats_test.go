package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"ucudnn/internal/tensor"
)

func TestMedianAndQuantile(t *testing.T) {
	odd := []float64{5, 1, 3}
	if got := median(odd); got != 3 {
		t.Errorf("median(%v) = %v, want 3", odd, got)
	}
	if odd[0] != 5 {
		t.Errorf("median reordered its input: %v", odd)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	xs := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {1, 50}, {0.25, 20}, {0.9, 46}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {99, 0}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	if got := selfTime(10*time.Second, []time.Duration{3 * time.Second, 4 * time.Second}); got != 3*time.Second {
		t.Errorf("selfTime = %v, want 3s", got)
	}
	// iteration [0,100) > forward [0,40) > conv [10,30); backward [40,100)
	// > conv [50,90). A span after the iteration is not in its subtree.
	r := &recorder{spans: []span{
		{ID: 1, Parent: 0, Name: "iteration", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "dnn.forward", Start: 0, End: 40},
		{ID: 3, Parent: 2, Name: "core.conv.fwd", Start: 10, End: 30},
		{ID: 4, Parent: 1, Name: "dnn.backward", Start: 40, End: 100},
		{ID: 5, Parent: 4, Name: "core.conv.bwd_data", Start: 50, End: 90},
		{ID: 6, Parent: 0, Name: "dnn.ooc.report", Start: 100, End: 105},
	}}
	got := r.tallies(0)
	want := map[string]tally{
		"iteration":          {Total: 100, Self: 0},
		"dnn.forward":        {Total: 40, Self: 20},
		"core.conv.fwd":      {Total: 20, Self: 20},
		"dnn.backward":       {Total: 60, Self: 20},
		"core.conv.bwd_data": {Total: 40, Self: 40},
	}
	if len(got) != len(want) {
		t.Fatalf("tallies = %v, want %v", got, want)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("tallies[%s] = %+v, want %+v", name, got[name], w)
		}
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder()
	a := r.begin("a")
	b := r.begin("b")
	r.end(b)
	c := r.begin("c")
	r.end(c)
	r.end(a)
	if r.spans[b].Parent != r.spans[a].ID || r.spans[c].Parent != r.spans[a].ID || r.spans[a].Parent != 0 {
		t.Errorf("parents: %+v", r.spans)
	}
	var nilRec *recorder
	if i := nilRec.begin("x"); i != -1 {
		t.Errorf("nil recorder begin = %d, want -1", i)
	}
	nilRec.end(-1)
}

func TestDirectFLOPs(t *testing.T) {
	// AlexNet conv1 at batch 1: 64x55x55 outputs, 3x11x11 taps each.
	conv1 := tensor.ConvShape{
		In:     tensor.Shape{N: 1, C: 3, H: 224, W: 224},
		Filt:   tensor.Filter{K: 64, C: 3, R: 11, S: 11},
		Params: tensor.ConvParams{PadH: 2, PadW: 2, StrideH: 4, StrideW: 4, DilationH: 1, DilationW: 1},
	}
	if got, want := directFLOPs(conv1), 2.0*64*55*55*3*11*11; got != want {
		t.Errorf("conv1 FLOPs = %v, want %v", got, want)
	}
	// The count scales with the batch.
	if got, want := directFLOPs(conv1.WithN(8)), 8*directFLOPs(conv1); got != want {
		t.Errorf("batch-8 FLOPs = %v, want %v", got, want)
	}
	small := tensor.ConvShape{
		In:     tensor.Shape{N: 2, C: 3, H: 5, W: 5},
		Filt:   tensor.Filter{K: 4, C: 3, R: 3, S: 3},
		Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1, DilationH: 1, DilationW: 1},
	}
	if got := directFLOPs(small); got != 2*2*4*5*5*3*3*3 {
		t.Errorf("small FLOPs = %v, want %v", got, 2*2*4*5*5*3*3*3)
	}
}

func randomGrad(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	g := make([]float32, n)
	for i := range g {
		g[i] = float32(rng.NormFloat64())
	}
	return g
}

func TestComparatorRejectsPerturbedGradient(t *testing.T) {
	want := outputs{names: []string{"output", "conv1.weight.grad"}, data: [][]float32{{2.5}, randomGrad(4096, 1)}}
	clone := func() outputs {
		o := outputs{names: append([]string(nil), want.names...)}
		for _, d := range want.data {
			o.data = append(o.data, append([]float32(nil), d...))
		}
		return o
	}
	if err := compareOutputs(clone(), want, gradTolerance); err != nil {
		t.Fatalf("identical outputs rejected: %v", err)
	}

	rounding := clone()
	for i := range rounding.data[1] {
		rounding.data[1][i] *= 1 + 1e-5*float32(i%3-1)
	}
	rounding.data[1][5] = -rounding.data[1][5] // one flipped ReLU/max-pool route
	if err := compareOutputs(rounding, want, gradTolerance); err != nil {
		t.Errorf("rounding-level differences rejected: %v", err)
	}

	perturbed := map[string]func(g []float32){
		"one element": func(g []float32) { g[17] += 50 },
		"10% noise": func(g []float32) {
			noise := randomGrad(len(g), 2)
			for i := range g {
				g[i] += 0.1 * noise[i]
			}
		},
		"half the batch lost": func(g []float32) {
			for i := range g {
				g[i] *= 0.5
			}
		},
		"NaN": func(g []float32) { g[0] = float32(math.NaN()) },
	}
	for name, perturb := range perturbed {
		got := clone()
		perturb(got.data[1])
		if err := compareOutputs(got, want, gradTolerance); err == nil {
			t.Errorf("%s: perturbed gradient accepted", name)
		}
	}

	short := clone()
	short.data[1] = short.data[1][:100]
	if err := compareOutputs(short, want, gradTolerance); err == nil {
		t.Error("truncated gradient accepted")
	}
	renamed := clone()
	renamed.names[1] = "conv2.weight.grad"
	if err := compareOutputs(renamed, want, gradTolerance); err == nil {
		t.Error("misnamed output accepted")
	}
}

func TestRelL2(t *testing.T) {
	if got := relL2([]float32{3, 4}, []float32{0, 0}); got != 5 {
		t.Errorf("relL2 against zeros = %v, want the absolute norm 5", got)
	}
	if got := relL2([]float32{1.1, 2}, []float32{1, 2}); math.Abs(got-0.1/math.Sqrt(5)) > 1e-6 {
		t.Errorf("relL2 = %v, want %v", got, 0.1/math.Sqrt(5))
	}
}

func TestComparableFingerprints(t *testing.T) {
	w, err := findWorkload("alexnet-roomy")
	if err != nil {
		t.Fatal(err)
	}
	a := record{Fingerprint: fingerprint{CPUModel: "x", NumCPU: 2, GOMAXPROCS: 2, ConvWorkers: 2}, Workload: w, Seed: 1}
	b := a
	b.Seed = 7
	if d := comparable(a, b); len(d) != 0 {
		t.Errorf("records differing only in seed refused: %v", d)
	}
	b.Fingerprint.GOMAXPROCS = 1
	if d := comparable(a, b); len(d) == 0 {
		t.Error("records from different GOMAXPROCS accepted")
	}
	c := a
	c.Workload.WSMiB = 8
	if d := comparable(a, c); len(d) == 0 {
		t.Error("records from different workload parameters accepted")
	}
}

// The metric lists the runs check themselves against must be the ones
// BENCHMARK.json declares, in the same order.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	check := func(what string, got, want []string) {
		if len(got) != len(want) {
			t.Errorf("%s: code has %d, BENCHMARK.json %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: code has %q, BENCHMARK.json %q", what, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", endToEnd, names(spec.EndToEnd))
	check("per_layer", perLayer(), names(spec.PerLayer))
	var wls []string
	for _, w := range workloads {
		wls = append(wls, w.Name)
	}
	check("workloads", wls, names(spec.Workloads))
}
