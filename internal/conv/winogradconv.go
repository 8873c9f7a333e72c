package conv

import (
	"fmt"
	"sync"

	"ucudnn/internal/blas"
	"ucudnn/internal/prof"
	"ucudnn/internal/tensor"
	"ucudnn/internal/winograd"
)

// fusedBlockTiles bounds how many tiles the fused Winograd variant keeps
// in flight; its workspace is independent of the spatial extent and batch.
const fusedBlockTiles = 64

var (
	wtMu    sync.Mutex
	wtCache = map[[2]int]*winograd.Transform{}
)

// winogradLargeTileMin is the smallest tiled extent at which the
// non-fused 3x3 path steps up from F(4x4,3x3) to F(6x6,3x3): two full
// 6-wide tiles per dimension, so the halo and tail waste of the larger
// tile is amortized. Below it F(4,3) wastes less work and carries less
// FP32 transform error.
const winogradLargeTileMin = 12

// winogradM returns the Winograd output-tile size m for op on cs — a
// pure function of the shape, so every worker count and workspace grant
// (and the device cost model, which mirrors this rule) agrees on the
// transform. Fused is always F(2x2,3x3); non-fused 5x5 is F(2x2,5x5);
// non-fused 3x3 picks F(6x6,3x3) on large output planes and F(4x4,3x3)
// otherwise.
func winogradM(op Op, cs tensor.ConvShape, fused bool) int {
	r := cs.Filt.R
	switch {
	case fused && r == 3:
		return 2
	case !fused && r == 5:
		return 2
	case !fused && r == 3:
		// The tiled extents: dX for BackwardData (the transformed
		// problem's output), the forward output otherwise.
		rows, cols := cs.OutShape().H, cs.OutShape().W
		if op == BackwardData {
			rows, cols = cs.In.H, cs.In.W
		}
		if rows >= winogradLargeTileMin && cols >= winogradLargeTileMin {
			return 6
		}
		return 4
	}
	panic(fmt.Sprintf("conv: no winograd transform for fused=%v r=%d", fused, r))
}

// winogradTransformFor returns the cached transform for op on cs:
// fused uses F(2x2,3x3); non-fused picks F(4x4,3x3) or F(6x6,3x3) by
// output extent (see winogradM) and supports 5x5 kernels via
// F(2x2,5x5), mirroring cuDNN.
func winogradTransformFor(op Op, cs tensor.ConvShape, fused bool) *winograd.Transform {
	m, r := winogradM(op, cs, fused), cs.Filt.R
	key := [2]int{m, r}
	wtMu.Lock()
	defer wtMu.Unlock()
	if tr, ok := wtCache[key]; ok {
		return tr
	}
	tr, err := winograd.NewTransform(m, r)
	if err != nil {
		panic(err)
	}
	wtCache[key] = tr
	return tr
}

// winogradTiles returns the number of tiles per image dimension and total
// tile count for tiling a rows x cols output with m x m tiles over batch n.
func winogradTiles(m, rows, cols, n int) (tilesH, tilesW, total int) {
	tilesH = ceilDiv(rows, m)
	tilesW = ceilDiv(cols, m)
	return tilesH, tilesW, n * tilesH * tilesW
}

// winogradArenaFloats is the per-worker scratch arena: three alpha^2
// buffers, enough for the largest (src, dst, tmp) triple of any transform
// phase (every buffer a transform touches is at most alpha x alpha).
func winogradArenaFloats(tr *winograd.Transform) int {
	return 3 * tr.Alpha * tr.Alpha
}

// winogradBaseFloats returns the float32 elements of the shared spectral
// buffers (filter spectra, input-tile spectra, products/accumulators) —
// everything in the workspace except the per-worker arenas.
func winogradBaseFloats(op Op, cs tensor.ConvShape, tr *winograd.Transform, fused bool) int64 {
	a2 := int64(tr.Alpha * tr.Alpha)
	out := cs.OutShape()
	c, k := int64(cs.In.C), int64(cs.Filt.K)
	var total int
	switch op {
	case BackwardFilter:
		_, _, total = winogradTiles(tr.M, out.H, out.W, cs.In.N)
		// Input tiles, output-gradient tiles, and the spectral accumulator.
		return a2 * ((c+k)*int64(total) + k*c)
	case BackwardData:
		_, _, total = winogradTiles(tr.M, cs.In.H, cs.In.W, cs.In.N)
	default:
		_, _, total = winogradTiles(tr.M, out.H, out.W, cs.In.N)
	}
	bp := int64(total)
	if fused && bp > fusedBlockTiles {
		bp = fusedBlockTiles
	}
	return a2 * (k*c + (c+k)*bp)
}

// winogradWorkspace returns the scratch bytes of the (non-)fused Winograd
// algorithm for op on cs: the shared spectral buffers plus one transform
// arena per engine worker (or a single arena with minimal set — the floor
// at which the tile loops run serially).
func winogradWorkspace(op Op, cs tensor.ConvShape, fused, minimal bool) int64 {
	tr := winogradTransformFor(op, cs, fused)
	workers := MaxWorkers()
	if minimal {
		workers = 1
	}
	arenas := int64(workers) * int64(winogradArenaFloats(tr))
	return (winogradBaseFloats(op, cs, tr, fused) + arenas) * 4
}

// winogradWorkers returns how many tile workers the granted workspace
// supports: one per arena that fits after the base (shared spectral
// buffer) floats, capped at the engine's worker limit.
func winogradWorkers(tr *winograd.Transform, base int, ws []float32) int {
	fit := (len(ws) - base) / winogradArenaFloats(tr)
	if fit < 1 {
		fit = 1
	}
	return imin(MaxWorkers(), fit)
}

func runWinograd(op Op, cs tensor.ConvShape, x *tensor.Tensor, w *tensor.FilterTensor, y *tensor.Tensor, alpha, beta float32, ws []float32, fused bool) error {
	tr := winogradTransformFor(op, cs, fused)
	switch op {
	case Forward:
		winogradCorrelate(tr, cs, x, w, y, alpha, beta, ws, fused, false)
	case BackwardData:
		// dX is the correlation of dY (padded by R-1-pad) with the rotated,
		// channel-swapped filter; reuse the forward engine on the
		// transformed problem.
		p := cs.Params.Normalized()
		if p.PadH > cs.Filt.R-1 || p.PadW > cs.Filt.S-1 {
			return fmt.Errorf("conv: winograd BackwardData requires pad < kernel size")
		}
		out := cs.OutShape()
		tcs := tensor.ConvShape{
			In:   tensor.Shape{N: cs.In.N, C: cs.Filt.K, H: out.H, W: out.W},
			Filt: tensor.Filter{K: cs.In.C, C: cs.Filt.K, R: cs.Filt.R, S: cs.Filt.S},
			Params: tensor.ConvParams{
				PadH: cs.Filt.R - 1 - p.PadH, PadW: cs.Filt.S - 1 - p.PadW,
				StrideH: 1, StrideW: 1, DilationH: 1, DilationW: 1,
			},
		}
		winogradCorrelate(tr, tcs, y, w, x, alpha, beta, ws, fused, true)
	case BackwardFilter:
		winogradBackwardFilter(tr, cs, x, w, y, alpha, beta, ws)
	}
	return nil
}

// wgCtx carries the Winograd kernel state shared by the tile phases.
// Methods use a value receiver so the serial path runs as plain calls
// with no closures — the property behind the zero-allocation steady
// state; the parallel branches wrap the same methods in closures created
// only when more than one arena is in play.
type wgCtx struct {
	tr          *winograd.Transform
	cs          tensor.ConvShape
	p           tensor.ConvParams
	in, out     tensor.Shape
	x, y        *tensor.Tensor
	w           *tensor.FilterTensor
	alpha, beta float32
	m, alpha2   int
	r, c, k     int
	tilesW      int
	tilesPer    int
	rotSwap     bool

	// Shared spectral buffers (layout differs per op; see the carve sites).
	u, v, mm []float32
	// Per-worker transform arenas, arena stride winogradArenaFloats.
	arena []float32

	// Block-panel geometry (correlate only).
	bp int
}

// bufs returns worker wk's three alpha^2 arena buffers.
//
//ucudnn:hotpath
func (g wgCtx) bufs(wk int) (b0, b1, b2 []float32) {
	a2 := g.alpha2
	base := wk * 3 * a2
	ar := g.arena[base : base+3*a2]
	return ar[:a2], ar[a2 : 2*a2], ar[2*a2 : 3*a2]
}

// filterTile transforms filter pair i = kk*c+cc into the spectral bank:
// U[e][kk*c+cc].
//
//ucudnn:hotpath
func (g wgCtx) filterTile(wk, i int) {
	kk, cc := i/g.c, i%g.c
	b0, b1, b2 := g.bufs(wk)
	r := g.r
	gb := b0[:r*r]
	for a := 0; a < r; a++ {
		for b := 0; b < r; b++ {
			if g.rotSwap {
				// Transformed-problem filter [kk=orig c][cc=orig k].
				gb[a*r+b] = g.w.At(cc, kk, r-1-a, r-1-b)
			} else {
				gb[a*r+b] = g.w.At(kk, cc, a, b)
			}
		}
	}
	ut := b1[:g.alpha2]
	tr := g.tr
	tr.FilterTransform(ut, gb, b2[:tr.Alpha*r])
	kc := g.k * g.c
	for e := 0; e < g.alpha2; e++ {
		g.u[e*kc+i] = ut[e]
	}
}

// inputTile transforms input tile p0+dp of channel cc (task i = cc*cnt+dp)
// into V[e][cc*bp + dp].
//
//ucudnn:hotpath
func (g wgCtx) inputTile(wk, i, p0, cnt int) {
	cc, dp := i/cnt, i%cnt
	pp := p0 + dp
	nn := pp / g.tilesPer
	th := (pp % g.tilesPer) / g.tilesW
	tw := pp % g.tilesW
	baseH := th*g.m - g.p.PadH
	baseW := tw*g.m - g.p.PadW
	b0, b1, b2 := g.bufs(wk)
	d := b0[:g.alpha2]
	for j := range d {
		d[j] = 0
	}
	tr := g.tr
	for a := 0; a < tr.Alpha; a++ {
		ih := baseH + a
		if ih < 0 || ih >= g.in.H {
			continue
		}
		for b := 0; b < tr.Alpha; b++ {
			iw := baseW + b
			if iw < 0 || iw >= g.in.W {
				continue
			}
			d[a*tr.Alpha+b] = g.x.At(nn, cc, ih, iw)
		}
	}
	vt := b1[:g.alpha2]
	tr.InputTransform(vt, d, b2[:g.alpha2])
	cbp := g.c * g.bp
	for e := 0; e < g.alpha2; e++ {
		g.v[e*cbp+cc*g.bp+dp] = vt[e]
	}
}

// spectralGemm multiplies spectral component e of the filter and input
// banks: M[e] (k x cnt) = U[e] (k x c) * V[e] (c x cnt).
//
//ucudnn:hotpath
func (g wgCtx) spectralGemm(e, cnt, sgemmWorkers int) {
	k, c, bp := g.k, g.c, g.bp
	blas.SgemmWorkersQuiet(sgemmWorkers, false, false, k, cnt, c,
		1, g.u[e*k*c:(e+1)*k*c], c, g.v[e*c*bp:e*c*bp+c*bp], bp, 0,
		g.mm[e*k*bp:e*k*bp+k*bp], bp)
}

// outputTile inverse-transforms product tile p0+dp of output channel kk
// (task i = kk*cnt+dp) and blends it into y.
//
//ucudnn:hotpath
func (g wgCtx) outputTile(wk, i, p0, cnt int) {
	kk, dp := i/cnt, i%cnt
	pp := p0 + dp
	nn := pp / g.tilesPer
	th := (pp % g.tilesPer) / g.tilesW
	tw := pp % g.tilesW
	b0, b1, b2 := g.bufs(wk)
	macc := b0[:g.alpha2]
	kbp := g.k * g.bp
	for e := 0; e < g.alpha2; e++ {
		macc[e] = g.mm[e*kbp+kk*g.bp+dp]
	}
	m := g.m
	yt := b1[:m*m]
	tr := g.tr
	tr.OutputTransform(yt, macc, b2[:m*tr.Alpha])
	for a := 0; a < m; a++ {
		oh := th*m + a
		if oh >= g.out.H {
			break
		}
		for b := 0; b < m; b++ {
			ow := tw*m + b
			if ow >= g.out.W {
				break
			}
			blend(&g.y.Data[g.y.Index(nn, kk, oh, ow)], yt[a*m+b], g.alpha, g.beta)
		}
	}
}

// winogradCorrelate computes out = alpha*corr(in, filt) + beta*out with
// the Winograd transform tr; cs describes the correlation being computed
// (for BackwardData, the transformed problem). When rotSwap is set, the
// filter is read rotated 180 degrees with its K/C axes swapped (the raw
// filter tensor retains its original KCRS layout).
func winogradCorrelate(tr *winograd.Transform, cs tensor.ConvShape, x *tensor.Tensor, w *tensor.FilterTensor, y *tensor.Tensor, alpha, beta float32, ws []float32, fused, rotSwap bool) {
	p := cs.Params.Normalized()
	out := cs.OutShape()
	in := cs.In
	m, alpha2 := tr.M, tr.Alpha*tr.Alpha
	c, k := cs.Filt.C, cs.Filt.K
	tilesH, tilesW, total := winogradTiles(m, out.H, out.W, in.N)
	bp := total
	if fused && bp > fusedBlockTiles {
		bp = fusedBlockTiles
	}

	g := wgCtx{
		tr: tr, cs: cs, p: p, in: in, out: out,
		x: x, y: y, w: w, alpha: alpha, beta: beta,
		m: m, alpha2: alpha2, r: cs.Filt.R, c: c, k: k,
		tilesW: tilesW, tilesPer: tilesH * tilesW, rotSwap: rotSwap,
		bp: bp,
	}
	g.u = ws[:alpha2*k*c]
	g.v = ws[alpha2*k*c : alpha2*(k*c+c*bp)]
	g.mm = ws[alpha2*(k*c+c*bp) : alpha2*(k*c+(c+k)*bp)]
	base := alpha2 * (k*c + (c+k)*bp)
	workers := winogradWorkers(tr, base, ws)
	g.arena = ws[base : base+workers*winogradArenaFloats(tr)]

	if workers <= 1 {
		// Serial path: plain method calls, no closures, so g stays on the
		// stack and steady-state execution allocates nothing. Each stage
		// loop is one phase window (wall time; the inner SGEMM may still
		// fan out, up to MaxWorkers).
		t := prof.Enter()
		for i := 0; i < k*c; i++ { // filter transforms: U[e][kk*c+cc]
			g.filterTile(0, i)
		}
		prof.Exit(phWinogradTransformIn, t)
		for p0 := 0; p0 < total; p0 += bp {
			cnt := imin(bp, total-p0)
			t = prof.Enter()
			for i := 0; i < c*cnt; i++ { // input tiles: V[e][cc*bp + (p-p0)]
				g.inputTile(0, i, p0, cnt)
			}
			t = prof.Next(phWinogradTransformIn, t)
			inner := blas.Workers(MaxWorkers(), k, cnt, c)
			for e := 0; e < alpha2; e++ { // M[e] = U[e] * V[e]
				g.spectralGemm(e, cnt, inner)
			}
			t = prof.Next(phWinogradElementwise, t)
			for i := 0; i < k*cnt; i++ { // inverse transforms and scatter
				g.outputTile(0, i, p0, cnt)
			}
			prof.Exit(phWinogradTransformOut, t)
		}
		return
	}
	// Copy g so only the copy is captured (and heap-allocated) by the
	// escaping closures; the serial path above keeps g off the heap.
	gc := g
	phaseForW(phWinogradTransformIn, workers, k*c, func(wk, i int) { gc.filterTile(wk, i) })
	for p0 := 0; p0 < total; p0 += bp {
		cnt := imin(bp, total-p0)
		phaseForW(phWinogradTransformIn, workers, c*cnt, func(wk, i int) { gc.inputTile(wk, i, p0, cnt) })
		phaseForW(phWinogradElementwise, workers, alpha2, func(_, e int) { gc.spectralGemm(e, cnt, 1) })
		phaseForW(phWinogradTransformOut, workers, k*cnt, func(wk, i int) { gc.outputTile(wk, i, p0, cnt) })
	}
}

// inputTileTotal is inputTile with the BackwardFilter bank layout
// V[e][cc*total + pp] (no block panelling).
//
//ucudnn:hotpath
func (g wgCtx) inputTileTotal(wk, i, total int) {
	cc, pp := i/total, i%total
	nn := pp / g.tilesPer
	th := (pp % g.tilesPer) / g.tilesW
	tw := pp % g.tilesW
	baseH := th*g.m - g.p.PadH
	baseW := tw*g.m - g.p.PadW
	b0, b1, b2 := g.bufs(wk)
	d := b0[:g.alpha2]
	for j := range d {
		d[j] = 0
	}
	tr := g.tr
	for a := 0; a < tr.Alpha; a++ {
		ih := baseH + a
		if ih < 0 || ih >= g.in.H {
			continue
		}
		for b := 0; b < tr.Alpha; b++ {
			iw := baseW + b
			if iw < 0 || iw >= g.in.W {
				continue
			}
			d[a*tr.Alpha+b] = g.x.At(nn, cc, ih, iw)
		}
	}
	vt := b1[:g.alpha2]
	tr.InputTransform(vt, d, b2[:g.alpha2])
	for e := 0; e < g.alpha2; e++ {
		g.v[e*g.c*total+cc*total+pp] = vt[e]
	}
}

// outputAdjointTile maps output-gradient tile pp of channel kk (task
// i = kk*total+pp) through the adjoint into Wb[e][kk*total + pp] (the mm
// bank in the BackwardFilter layout).
//
//ucudnn:hotpath
func (g wgCtx) outputAdjointTile(wk, i, total int) {
	kk, pp := i/total, i%total
	nn := pp / g.tilesPer
	th := (pp % g.tilesPer) / g.tilesW
	tw := pp % g.tilesW
	b0, b1, b2 := g.bufs(wk)
	m := g.m
	dy := b0[:m*m]
	for j := range dy {
		dy[j] = 0
	}
	for a := 0; a < m; a++ {
		oh := th*m + a
		if oh >= g.out.H {
			break
		}
		for b := 0; b < m; b++ {
			ow := tw*m + b
			if ow >= g.out.W {
				break
			}
			dy[a*m+b] = g.y.At(nn, kk, oh, ow)
		}
	}
	wt := b1[:g.alpha2]
	tr := g.tr
	tr.OutputAdjoint(wt, dy, b2[:tr.Alpha*m])
	for e := 0; e < g.alpha2; e++ {
		g.mm[e*g.k*total+kk*total+pp] = wt[e]
	}
}

// spectralAdjointGemm accumulates spectral component e of the filter
// gradient: dU[e] (k x c) = Wb[e] (k x total) * V[e]ᵀ.
//
//ucudnn:hotpath
func (g wgCtx) spectralAdjointGemm(e, total, sgemmWorkers int) {
	k, c := g.k, g.c
	blas.SgemmWorkersQuiet(sgemmWorkers, false, true, k, c, total,
		1, g.mm[e*k*total:(e+1)*k*total], total, g.v[e*c*total:(e+1)*c*total], total, 0,
		g.u[e*k*c:(e+1)*k*c], c)
}

// filterAdjointTile maps spectral accumulator pair i = kk*c+cc back to
// filter space and blends it into dW.
//
//ucudnn:hotpath
func (g wgCtx) filterAdjointTile(wk, i int) {
	kk, cc := i/g.c, i%g.c
	b0, b1, b2 := g.bufs(wk)
	uacc := b0[:g.alpha2]
	kc := g.k * g.c
	for e := 0; e < g.alpha2; e++ {
		uacc[e] = g.u[e*kc+i]
	}
	r := g.r
	gb := b1[:r*r]
	tr := g.tr
	tr.FilterAdjoint(gb, uacc, b2[:r*tr.Alpha])
	for a := 0; a < r; a++ {
		for b := 0; b < r; b++ {
			blend(&g.w.Data[g.w.Index(kk, cc, a, b)], gb[a*r+b], g.alpha, g.beta)
		}
	}
}

// winogradBackwardFilter computes dW = alpha*grad + beta*dW using the
// exact adjoint of the Winograd forward tiling (non-fused only).
func winogradBackwardFilter(tr *winograd.Transform, cs tensor.ConvShape, x *tensor.Tensor, w *tensor.FilterTensor, y *tensor.Tensor, alpha, beta float32, ws []float32) {
	p := cs.Params.Normalized()
	out := cs.OutShape()
	in := cs.In
	m, alpha2 := tr.M, tr.Alpha*tr.Alpha
	c, k := cs.Filt.C, cs.Filt.K
	tilesH, tilesW, total := winogradTiles(m, out.H, out.W, in.N)

	g := wgCtx{
		tr: tr, cs: cs, p: p, in: in, out: out,
		x: x, y: y, w: w, alpha: alpha, beta: beta,
		m: m, alpha2: alpha2, r: cs.Filt.R, c: c, k: k,
		tilesW: tilesW, tilesPer: tilesH * tilesW,
	}
	// Input tiles, output-gradient tiles (mm), and the spectral
	// accumulator (u), then the worker arenas.
	g.v = ws[:alpha2*c*total]
	g.mm = ws[alpha2*c*total : alpha2*(c+k)*total]
	g.u = ws[alpha2*(c+k)*total : alpha2*((c+k)*total+k*c)]
	base := alpha2 * ((c+k)*total + k*c)
	workers := winogradWorkers(tr, base, ws)
	g.arena = ws[base : base+workers*winogradArenaFloats(tr)]

	if workers <= 1 {
		// Serial path: plain method calls keep g on the stack (see
		// winogradCorrelate).
		t := prof.Enter()
		for i := 0; i < c*total; i++ { // input tiles: V[e][cc*total + p]
			g.inputTileTotal(0, i, total)
		}
		for i := 0; i < k*total; i++ { // adjoint dY tiles: Wb[e][kk*total + p]
			g.outputAdjointTile(0, i, total)
		}
		t = prof.Next(phWinogradTransformIn, t)
		inner := blas.Workers(MaxWorkers(), k, c, total)
		for e := 0; e < alpha2; e++ { // dU[e] = Wb[e] * V[e]ᵀ
			g.spectralAdjointGemm(e, total, inner)
		}
		t = prof.Next(phWinogradElementwise, t)
		for i := 0; i < k*c; i++ { // back to filter space
			g.filterAdjointTile(0, i)
		}
		prof.Exit(phWinogradTransformOut, t)
		return
	}
	gc := g
	phaseForW(phWinogradTransformIn, workers, c*total, func(wk, i int) { gc.inputTileTotal(wk, i, total) })
	phaseForW(phWinogradTransformIn, workers, k*total, func(wk, i int) { gc.outputAdjointTile(wk, i, total) })
	phaseForW(phWinogradElementwise, workers, alpha2, func(_, e int) { gc.spectralAdjointGemm(e, total, 1) })
	phaseForW(phWinogradTransformOut, workers, k*c, func(wk, i int) { gc.filterAdjointTile(wk, i) })
}
