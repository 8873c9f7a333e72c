// End-to-end training under µ-cuDNN with real arithmetic: a small CNN
// learns a synthetic classification task twice — once over plain cuDNN,
// once over µ-cuDNN with a tight workspace budget — and the example shows
// the losses track each other while µ-cuDNN runs micro-batched kernels.
// This demonstrates the paper's claim that micro-batching decouples
// hardware efficiency from statistical efficiency: the training dynamics
// are unchanged.
//
// At exit the µ-cuDNN run exports its observability outputs: a metrics
// summary (training_metrics.txt; metrics_sample.txt is a checked-in
// snapshot) and a Chrome trace of the training timeline
// (training_trace.json, viewable in chrome://tracing or Perfetto). Both
// paths can be overridden with UCUDNN_METRICS and UCUDNN_TRACE.
//
// A final run takes the same idea out of core: the device is capped
// below the undivided activation footprint, the mini-batch streams
// through in micro-batch windows under a blob budget, and every
// per-step loss is still bitwise identical to an uncapped reference.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"ucudnn/internal/conv"
	"ucudnn/internal/core"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/device"
	"ucudnn/internal/dnn"
	"ucudnn/internal/tensor"
	"ucudnn/internal/trace"
)

const (
	batch   = 16
	classes = 4
	steps   = 40
)

func buildNet(ctx *dnn.Context) (*dnn.Net, *dnn.SoftmaxLoss) {
	net := dnn.NewNet(ctx)
	net.Input("data", tensor.Shape{N: batch, C: 3, H: 16, W: 16})
	net.Add(dnn.NewConv("conv1", 16, 3, 1, 1, true), "conv1", "data")
	net.Add(dnn.NewReLU("relu1"), "relu1", "conv1")
	net.Add(dnn.NewPool("pool1", dnn.MaxPool, 2, 2, 0), "pool1", "relu1")
	net.Add(dnn.NewConv("conv2", 32, 3, 1, 1, true), "conv2", "pool1")
	net.Add(dnn.NewReLU("relu2"), "relu2", "conv2")
	net.Add(dnn.NewGlobalAvgPool("gap"), "gap", "relu2")
	net.Add(dnn.NewFC("fc", classes), "fc", "gap")
	loss := dnn.NewSoftmaxLoss("loss")
	net.Add(loss, "loss", "fc")
	return net, loss
}

// makeBatch writes a quadrant-energy classification task.
func makeBatch(rng *rand.Rand, in *tensor.Tensor, labels []int) {
	in.Randomize(rng, 0.1)
	for n := 0; n < batch; n++ {
		lbl := rng.Intn(classes)
		labels[n] = lbl
		h0, w0 := (lbl/2)*8, (lbl%2)*8
		for c := 0; c < 3; c++ {
			for h := 0; h < 8; h++ {
				for w := 0; w < 8; w++ {
					in.Add(n, c, h0+h, w0+w, 1.0)
				}
			}
		}
	}
}

func train(name string, convH dnn.ConvHandle, inner *cudnn.Handle, rec *trace.Recorder, ooc *dnn.OOCState) []float32 {
	ctx := dnn.NewContext(convH, inner, 1<<20)
	ctx.RNG = rand.New(rand.NewSource(42))
	ctx.Trace = rec
	ctx.OOC = ooc
	net, loss := buildNet(ctx)
	if err := net.Setup(); err != nil {
		log.Fatal(err)
	}
	sgd := dnn.NewSGD(0.05, 0.9, 1e-4)
	rng := rand.New(rand.NewSource(7))
	loss.Labels = make([]int, batch)
	var hist []float32
	for it := 0; it < steps; it++ {
		makeBatch(rng, net.InputBlob().Data, loss.Labels)
		net.ZeroGrads()
		if err := net.Forward(); err != nil {
			log.Fatal(err)
		}
		if err := net.Backward(); err != nil {
			log.Fatal(err)
		}
		sgd.Step(net.Params())
		hist = append(hist, loss.Loss)
	}
	fmt.Printf("%-8s loss: %.4f -> %.4f (simulated kernel time %v)\n",
		name, hist[0], hist[len(hist)-1], inner.Elapsed())
	return hist
}

func main() {
	plain := cudnn.NewHandle(device.P100, cudnn.ModelBackend)
	base := train("cuDNN", plain, plain, nil, nil)

	inner := cudnn.NewHandle(device.P100, cudnn.ModelBackend)
	uc, err := core.New(inner,
		core.WithPolicy(core.PolicyPowerOfTwo),
		core.WithWorkspaceLimit(1<<20),
		core.WithMetricsPath("training_metrics.txt"),
		core.WithTracePath("training_trace.json"),
		core.FromEnv())
	if err != nil {
		log.Fatal(err)
	}
	opt := train("µ-cuDNN", uc, inner, uc.TraceRecorder(), nil)

	var maxDiff float64
	for i := range base {
		d := float64(base[i] - opt[i])
		if d < 0 {
			d = -d
		}
		if d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("\nmax per-step loss divergence: %.3e (statistical efficiency preserved)\n", maxDiff)
	fmt.Println("\nµ-cuDNN execution plans:")
	for _, p := range uc.Plans() {
		fmt.Printf("  %v\n", p)
	}

	if err := uc.Flush(); err != nil {
		log.Fatal(err)
	}
	o := uc.Options()
	fmt.Printf("\nwrote metrics to %s and trace to %s\n", o.MetricsPath, o.TracePath)

	trainOutOfCore()
}

// gemmOnly pins convolution to the GEMM algorithm so divided and
// undivided runs share one arithmetic and can be compared bit for bit.
func gemmOnly(op conv.Op, a conv.Algo) bool { return a == conv.AlgoGemm }

// trainOutOfCore trains the same task on a device whose memory cannot
// hold the undivided activations: the mini-batch streams through in
// micro-batch windows under a blob budget, and every per-step loss is
// bitwise identical to an uncapped reference run.
func trainOutOfCore() {
	fmt.Println("\nout-of-core training under a blob-memory budget:")

	// Probe the activation footprint (shapes only, no compute).
	probe := cudnn.NewHandle(device.P100, cudnn.ModelBackend)
	probe.SetAlgoFilter(gemmOnly)
	probeCtx := dnn.NewContext(probe, probe, 1<<20)
	probeCtx.SkipCompute = true
	probeNet, _ := buildNet(probeCtx)
	if err := probeNet.Setup(); err != nil {
		log.Fatal(err)
	}
	model, err := dnn.FootprintModel(probeNet)
	if err != nil {
		log.Fatal(err)
	}
	// The cap leaves room for everything but the activations (parameters
	// and the GEMM workspaces, which grow with the kernel worker count)
	// plus three quarters of the activations.
	act := model.ActivationBytes()
	capBytes := probe.Mem().Used() - act + act*3/4
	fmt.Printf("undivided activations %.1f KiB; device capped at %.1f KiB\n",
		float64(act)/(1<<10), float64(capBytes)/(1<<10))

	// Undivided training cannot even allocate its blobs under the cap.
	small := cudnn.NewHandle(device.P100, cudnn.ModelBackend)
	small.SetAlgoFilter(gemmOnly)
	small.Mem().Cap = capBytes
	failNet, _ := buildNet(dnn.NewContext(small, small, 1<<20))
	if err := failNet.Setup(); err == nil {
		log.Fatal("undivided setup fit a device it must not fit")
	} else {
		fmt.Printf("undivided setup on the capped device: %v\n", err)
	}

	// Uncapped reference with the same pinned arithmetic.
	ref := cudnn.NewHandle(device.P100, cudnn.ModelBackend)
	ref.SetAlgoFilter(gemmOnly)
	refHist := train("ref", ref, ref, nil, nil)

	// Out-of-core run: three eighths of the activations as the blob budget.
	plan, err := dnn.PlanOOC(model, act*3/8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("OOC plan: budget %.1f KiB, chunk %d (%d windows), peak %.1f KiB, floor=%v\n",
		float64(plan.Budget)/(1<<10), plan.Chunk, plan.Windows, float64(plan.PeakBytes)/(1<<10), plan.Floor)
	oocH := cudnn.NewHandle(device.P100, cudnn.ModelBackend)
	oocH.SetAlgoFilter(gemmOnly)
	oocH.Mem().Cap = capBytes
	state := dnn.NewOOCState(model, plan)
	oocHist := train("OOC", oocH, oocH, nil, state)

	for i := range refHist {
		if math.Float32bits(refHist[i]) != math.Float32bits(oocHist[i]) {
			log.Fatalf("step %d: OOC loss %g != reference %g (bitwise)", i, oocHist[i], refHist[i])
		}
	}
	r := state.Report()
	fmt.Printf("all %d per-step losses bitwise identical; streamed %.1f KiB in, %.1f KiB out\n",
		len(refHist), float64(r.FetchBytes)/(1<<10), float64(r.SpillBytes)/(1<<10))
}
