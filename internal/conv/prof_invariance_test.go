package conv

// The profiler's engine contract: enabling phase profiling changes no
// arithmetic. Every hook either reads a clock or bumps an atomic — it
// never reorders the striped loops — so outputs are bit-identical with
// profiling on and off, serial and striped — and every profiled kernel
// keeps attributed <= measured.

import (
	"fmt"
	"math"
	"testing"

	"ucudnn/internal/prof"
	"ucudnn/internal/tensor"
)

func TestProfilingBitwiseInvariance(t *testing.T) {
	prof.Reset()
	t.Cleanup(func() {
		prof.Disable()
		prof.Reset()
	})
	// One shape above blas's serial threshold, so the strip-starved GEMM
	// and Winograd paths fan their inner SGEMM out.
	shapes := append(testShapes[:len(testShapes):len(testShapes)], tensor.ConvShape{
		In:     tensor.Shape{N: 2, C: 16, H: 12, W: 12},
		Filt:   tensor.Filter{K: 16, C: 16, R: 3, S: 3},
		Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1},
	})
	for _, p := range []int{1, 2, 4} {
		withWorkers(p, func() {
			for _, op := range Ops {
				for _, algo := range AlgosFor(op) {
					for si, cs := range shapes {
						if !Supported(op, algo, cs) {
							continue
						}
						// The striped workspace, then the MinWorkspace floor
						// that starves the run down to one strip.
						floorB, _ := MinWorkspace(op, algo, cs)
						for _, floor := range []bool{false, true} {
							var ref []float32
							for _, profiling := range []bool{false, true} {
								if profiling {
									prof.Enable()
								} else {
									prof.Disable()
								}
								x, w, y := randomProblem(cs, int64(si+77))
								ws := wsFor(t, op, algo, cs)
								if floor {
									ws = ws[:(floorB+3)/4]
								}
								kernel := fmt.Sprintf("P=%d %v/%v shape %d floor=%v", p, op, algo, si, floor)
								start := prof.Begin(kernel)
								err := Run(op, algo, cs, x, w, y, 0.75, 0.25, ws)
								prof.End(start)
								if err != nil {
									t.Fatalf("%s (profiling=%v): %v", kernel, profiling, err)
								}
								got := resultOf(op, x, w, y)
								if ref == nil {
									ref = append([]float32(nil), got...)
									continue
								}
								for i := range got {
									if math.Float32bits(got[i]) != math.Float32bits(ref[i]) {
										t.Fatalf("%s: profiling changes elem %d (%x vs %x)",
											kernel, i, math.Float32bits(got[i]), math.Float32bits(ref[i]))
									}
								}
							}
							prof.Disable()
						}
					}
				}
			}
		})
	}
	// Every profiled run is its own kernel row, and each must keep the
	// accounting promise attributed <= measured — serial windows, worker
	// windows inside launches, and inner SGEMM launches alike. The runs
	// must also actually have recorded phase windows and launches —
	// otherwise this test would pass vacuously with dead hooks.
	var attributed, launches int64
	for _, r := range prof.Snapshot() {
		if r.AttributedNS > r.MeasuredNS {
			t.Errorf("%s: attributed %d exceeds measured %d", r.Kernel, r.AttributedNS, r.MeasuredNS)
		}
		attributed += r.AttributedNS
		launches += r.Launches
	}
	if attributed <= 0 || launches <= 0 {
		t.Fatalf("profiled runs recorded %d ns of phase time and %d launches, want both positive", attributed, launches)
	}
}
