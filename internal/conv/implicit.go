package conv

import "ucudnn/internal/tensor"

// runImplicitGemm performs the convolution as an implicitly-lowered matrix
// product: the im2col gather happens on the fly inside the inner loops, so
// no workspace is needed. The loop nest differs from the direct kernel
// (filter taps outermost, output pixels innermost) which is how implicit
// GEMM kernels stream through memory.
func runImplicitGemm(op Op, cs tensor.ConvShape, x *tensor.Tensor, w *tensor.FilterTensor, y *tensor.Tensor, alpha, beta float32) {
	p := cs.Params.Normalized()
	out := cs.OutShape()
	in := cs.In
	f := cs.Filt
	switch op {
	case Forward:
		phaseForW(phImplicitMain, MaxWorkers(), out.N*out.C, func(_, idx int) {
			n := idx / out.C
			k := idx % out.C
			plane := y.Data[y.Index(n, k, 0, 0) : y.Index(n, k, 0, 0)+out.H*out.W]
			if beta == 0 {
				for i := range plane {
					plane[i] = 0
				}
			} else if beta != 1 {
				for i := range plane {
					plane[i] *= beta
				}
			}
			for c := 0; c < f.C; c++ {
				for r := 0; r < f.R; r++ {
					for s := 0; s < f.S; s++ {
						wv := alpha * w.At(k, c, r, s)
						if wv == 0 {
							continue
						}
						for oh := 0; oh < out.H; oh++ {
							ih := oh*p.StrideH - p.PadH + r*p.DilationH
							if ih < 0 || ih >= in.H {
								continue
							}
							dst := plane[oh*out.W : (oh+1)*out.W]
							for ow := 0; ow < out.W; ow++ {
								iw := ow*p.StrideW - p.PadW + s*p.DilationW
								if iw < 0 || iw >= in.W {
									continue
								}
								dst[ow] += wv * x.At(n, c, ih, iw)
							}
						}
					}
				}
			}
		})
	case BackwardData:
		phaseForW(phImplicitMain, MaxWorkers(), in.N*in.C, func(_, idx int) {
			n := idx / in.C
			c := idx % in.C
			plane := x.Data[x.Index(n, c, 0, 0) : x.Index(n, c, 0, 0)+in.H*in.W]
			if beta == 0 {
				for i := range plane {
					plane[i] = 0
				}
			} else if beta != 1 {
				for i := range plane {
					plane[i] *= beta
				}
			}
			for k := 0; k < f.K; k++ {
				for r := 0; r < f.R; r++ {
					for s := 0; s < f.S; s++ {
						wv := alpha * w.At(k, c, r, s)
						if wv == 0 {
							continue
						}
						for oh := 0; oh < out.H; oh++ {
							ih := oh*p.StrideH - p.PadH + r*p.DilationH
							if ih < 0 || ih >= in.H {
								continue
							}
							for ow := 0; ow < out.W; ow++ {
								iw := ow*p.StrideW - p.PadW + s*p.DilationW
								if iw < 0 || iw >= in.W {
									continue
								}
								plane[ih*in.W+iw] += wv * y.At(n, k, oh, ow)
							}
						}
					}
				}
			}
		})
	case BackwardFilter:
		// Per output channel: stream dY pixels, scattering into the filter
		// gradient row. Batch order is preserved per element (n outermost),
		// so beta=1 micro-batch accumulation keeps the paper's semantics.
		crs := f.C * f.R * f.S
		phaseForW(phImplicitMain, MaxWorkers(), f.K, func(_, k int) {
			row := w.Data[k*crs : (k+1)*crs]
			if beta == 0 {
				for i := range row {
					row[i] = 0
				}
			} else if beta != 1 {
				for i := range row {
					row[i] *= beta
				}
			}
			for n := 0; n < in.N; n++ {
				for oh := 0; oh < out.H; oh++ {
					for ow := 0; ow < out.W; ow++ {
						g := alpha * y.At(n, k, oh, ow)
						if g == 0 {
							continue
						}
						hBase := oh*p.StrideH - p.PadH
						wBase := ow*p.StrideW - p.PadW
						for c := 0; c < f.C; c++ {
							for r := 0; r < f.R; r++ {
								ih := hBase + r*p.DilationH
								if ih < 0 || ih >= in.H {
									continue
								}
								for s := 0; s < f.S; s++ {
									iw := wBase + s*p.DilationW
									if iw < 0 || iw >= in.W {
										continue
									}
									row[(c*f.R+r)*f.S+s] += g * x.At(n, c, ih, iw)
								}
							}
						}
					}
				}
			}
		})
	}
}

// precompWorkspace returns the bytes for the precomputed gather-index
// table: one float32-encoded sample-local offset (or -1 for a padded
// position) per im2col matrix entry.
func precompWorkspace(cs tensor.ConvShape) int64 {
	out := cs.OutShape()
	return int64(cs.Filt.C) * int64(cs.Filt.R) * int64(cs.Filt.S) *
		int64(out.H) * int64(out.W) * 4
}

// runImplicitPrecomp is IMPLICIT_PRECOMP_GEMM: the gather offsets of the
// implicit lowering are precomputed once into workspace (they are shared
// by every sample), then each sample streams through the table. Offsets
// are stored as float32 values, which is exact because Supported bounds
// per-sample tensors to 2^24 elements.
func runImplicitPrecomp(op Op, cs tensor.ConvShape, x *tensor.Tensor, w *tensor.FilterTensor, y *tensor.Tensor, alpha, beta float32, ws []float32) {
	if op != Forward {
		panic("conv: IMPLICIT_PRECOMP_GEMM supports Forward only")
	}
	p := cs.Params.Normalized()
	out := cs.OutShape()
	in := cs.In
	f := cs.Filt
	pixels := out.H * out.W
	crs := f.C * f.R * f.S
	table := ws[:crs*pixels]
	// Each table row (one (c, r, s) filter tap) is independent, so the
	// build parallelizes over taps.
	phaseForW(phImplicitPrecomp, MaxWorkers(), crs, func(_, j int) {
		c := j / (f.R * f.S)
		r := (j / f.S) % f.R
		s := j % f.S
		trow := table[j*pixels : (j+1)*pixels]
		ti := 0
		for oh := 0; oh < out.H; oh++ {
			ih := oh*p.StrideH - p.PadH + r*p.DilationH
			for ow := 0; ow < out.W; ow++ {
				iw := ow*p.StrideW - p.PadW + s*p.DilationW
				if ih < 0 || ih >= in.H || iw < 0 || iw >= in.W {
					trow[ti] = -1
				} else {
					trow[ti] = float32((c*in.H+ih)*in.W + iw)
				}
				ti++
			}
		}
	})
	inPlane := in.C * in.H * in.W
	phaseForW(phImplicitMain, MaxWorkers(), out.N*out.C, func(_, idx int) {
		n := idx / out.C
		k := idx % out.C
		xn := x.Data[n*inPlane : (n+1)*inPlane]
		plane := y.Data[y.Index(n, k, 0, 0) : y.Index(n, k, 0, 0)+pixels]
		if beta == 0 {
			for i := range plane {
				plane[i] = 0
			}
		} else if beta != 1 {
			for i := range plane {
				plane[i] *= beta
			}
		}
		wrow := w.Data[k*crs : (k+1)*crs]
		for j := 0; j < crs; j++ {
			wv := alpha * wrow[j]
			if wv == 0 {
				continue
			}
			trow := table[j*pixels : (j+1)*pixels]
			for i, idxF := range trow {
				if idxF >= 0 {
					plane[i] += wv * xn[int(idxF)]
				}
			}
		}
	})
}
