package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"ucudnn/internal/tensor"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the two nearest order statistics; xs is not
// modified. It returns 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5): the middle value, or the mean of the two
// middle values of an even-sized sample.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile returns the highest of the percentiles 99.9, 99 and 90
// that has at least ten of n samples beyond it, or 0 when none does (a
// median is then the only honest summary).
func tailPercentile(n int) float64 {
	for _, perMille := range []int{999, 990, 900} {
		if n*(1000-perMille)/1000 >= 10 {
			return float64(perMille) / 10
		}
	}
	return 0
}

// selfTime is a span's duration minus the part of it its children
// cover. Children must lie inside the parent and must not overlap each
// other, which the benchmark's single-threaded span stack guarantees.
func selfTime(total time.Duration, children []time.Duration) time.Duration {
	for _, c := range children {
		total -= c
	}
	return total
}

// directFLOPs is the direct-convolution-equivalent floating-point
// operation count of one convolution call: one multiply and one add per
// (output element, input channel, filter tap). The three operations of a
// kernel perform the same number of multiply-adds, so the count is the
// same for Forward, BackwardData and BackwardFilter.
func directFLOPs(cs tensor.ConvShape) float64 {
	out := cs.OutShape()
	return 2 * float64(out.N) * float64(out.C) * float64(out.H) * float64(out.W) *
		float64(cs.Filt.C) * float64(cs.Filt.R) * float64(cs.Filt.S)
}

// relL2 is ||got - want||₂ / ||want||₂, or ||got||₂ when want is all
// zeros. NaN or Inf anywhere in either input yields +Inf.
func relL2(got, want []float32) float64 {
	var diff, norm float64
	for i := range want {
		g, w := float64(got[i]), float64(want[i])
		if math.IsNaN(g) || math.IsInf(g, 0) || math.IsNaN(w) || math.IsInf(w, 0) {
			return math.Inf(1)
		}
		diff += (g - w) * (g - w)
		norm += w * w
	}
	if norm == 0 {
		return math.Sqrt(diff)
	}
	return math.Sqrt(diff / norm)
}

// compareTensor checks got against want under the relative-L2 tolerance.
func compareTensor(name string, got, want []float32, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d elements, reference has %d", name, len(got), len(want))
	}
	if e := relL2(got, want); !(e <= tol) {
		return fmt.Errorf("%s: relative L2 error %.3g exceeds %.3g", name, e, tol)
	}
	return nil
}
