package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ucudnn/internal/conv"
	"ucudnn/internal/core"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/tensor"
)

// span is one timed region of the benchmark's own code, around a call
// into one layer's public functions. Parent is 0 for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps the traced run's spans in memory; they are written out
// once, when the run ends. The benchmark is single-threaded, so one
// stack of open spans gives every span its parent. A nil recorder
// records nothing, which is how the untraced run uses the same code.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int // indexes into spans
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its handle for end.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	i := len(r.spans)
	r.spans = append(r.spans, span{ID: i + 1, Parent: parent, Name: name, Start: int64(time.Since(r.t0))})
	r.open = append(r.open, i)
	return i
}

// end closes the span begin returned; spans close innermost first.
func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	r.spans[i].End = int64(time.Since(r.t0))
	r.open = r.open[:len(r.open)-1]
}

// within runs f inside a span named name.
func (r *recorder) within(name string, f func() error) error {
	i := r.begin(name)
	defer r.end(i)
	return f()
}

// tally is the total and self time of the spans of one name.
type tally struct{ Total, Self time.Duration }

// tallies sums, per span name, the durations and self times of every
// span in the subtree rooted at span index root (root included).
func (r *recorder) tallies(root int) map[string]tally {
	out := map[string]tally{}
	// Spans are appended in start order and children close before their
	// parents, so a subtree is the contiguous run of spans after root
	// whose parents are already in it.
	in := map[int]bool{r.spans[root].ID: true}
	hi := root + 1
	for hi < len(r.spans) && in[r.spans[hi].Parent] {
		in[r.spans[hi].ID] = true
		hi++
	}
	children := map[int][]time.Duration{}
	for _, s := range r.spans[root+1 : hi] {
		children[s.Parent] = append(children[s.Parent], s.dur())
	}
	for _, s := range r.spans[root:hi] {
		t := out[s.Name]
		t.Total += s.dur()
		t.Self += selfTime(s.dur(), children[s.ID])
		out[s.Name] = t
	}
	return out
}

// write stores the spans as JSON at path, creating its directory.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Span names of the convolution calls, one per operation.
var convSpan = [...]string{
	conv.Forward:        "core.conv.fwd",
	conv.BackwardData:   "core.conv.bwd_data",
	conv.BackwardFilter: "core.conv.bwd_filter",
}

// convCall is one convolution call as the framework made it, with its
// operands in conv.Run's convention: for BackwardData x holds dX and y
// holds dY, for BackwardFilter w holds dW and y holds dY. The operands
// are the network's own tensors, so after the iteration they still hold
// the values the call saw: inputs are not written again later in the
// pass, and no parameter update runs.
type convCall struct {
	Op    conv.Op
	Shape tensor.ConvShape
	X, Y  *tensor.Tensor
	W     *tensor.FilterTensor
}

// convShim implements dnn.ConvHandle around the µ-cuDNN handle. It
// opens a span around every convolution call and, while logging is on,
// records the call so its planned kernels can be replayed afterwards.
type convShim struct {
	*core.Handle
	rec     *recorder
	logging bool
	calls   []convCall
}

func (s *convShim) call(c convCall, f func() error) error {
	if s.logging {
		s.calls = append(s.calls, c)
	}
	return s.rec.within(convSpan[c.Op], f)
}

func (s *convShim) ConvolutionForward(alpha float32, xd cudnn.TensorDesc, x *tensor.Tensor, wd cudnn.FilterDesc, w *tensor.FilterTensor, cd cudnn.ConvDesc, algo conv.Algo, ws []float32, beta float32, yd cudnn.TensorDesc, y *tensor.Tensor) error {
	return s.call(convCall{conv.Forward, cudnn.Shape(xd, wd, cd), x, y, w}, func() error {
		return s.Handle.ConvolutionForward(alpha, xd, x, wd, w, cd, algo, ws, beta, yd, y)
	})
}

func (s *convShim) ConvolutionBackwardData(alpha float32, wd cudnn.FilterDesc, w *tensor.FilterTensor, dyd cudnn.TensorDesc, dy *tensor.Tensor, cd cudnn.ConvDesc, algo conv.Algo, ws []float32, beta float32, dxd cudnn.TensorDesc, dx *tensor.Tensor) error {
	return s.call(convCall{conv.BackwardData, cudnn.Shape(dxd, wd, cd), dx, dy, w}, func() error {
		return s.Handle.ConvolutionBackwardData(alpha, wd, w, dyd, dy, cd, algo, ws, beta, dxd, dx)
	})
}

func (s *convShim) ConvolutionBackwardFilter(alpha float32, xd cudnn.TensorDesc, x *tensor.Tensor, dyd cudnn.TensorDesc, dy *tensor.Tensor, cd cudnn.ConvDesc, algo conv.Algo, ws []float32, beta float32, dwd cudnn.FilterDesc, dw *tensor.FilterTensor) error {
	return s.call(convCall{conv.BackwardFilter, cudnn.Shape(xd, dwd, cd), x, dy, dw}, func() error {
		return s.Handle.ConvolutionBackwardFilter(alpha, xd, x, dyd, dy, cd, algo, ws, beta, dwd, dw)
	})
}

// spanPath is where a traced run writes its spans.
func spanPath(workload string, seed int64) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", workload, seed))
}
