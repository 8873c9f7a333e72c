package zoo

import (
	"testing"

	"ucudnn/internal/cudnn"
	"ucudnn/internal/device"
	"ucudnn/internal/dnn"
)

func timingCtx() *dnn.Context {
	h := cudnn.NewHandle(device.P100, cudnn.ModelOnlyBackend)
	ctx := dnn.NewContext(h, h, 64<<20)
	ctx.SkipCompute = true
	return ctx
}

func paramCount(net *dnn.Net) int64 {
	var n int64
	for _, p := range net.Params() {
		n += int64(len(p.Data))
	}
	return n
}

func countConvLayers(net *dnn.Net) int {
	n := 0
	for _, l := range net.Layers() {
		if IsConvLayer(l) {
			n++
		}
	}
	return n
}

func TestAlexNetShapeAndParams(t *testing.T) {
	net, _ := AlexNet(timingCtx(), 2, 1000)
	if err := net.Setup(); err != nil {
		t.Fatal(err)
	}
	// Known blob shapes of the single-column variant.
	cases := map[string][4]int{
		"conv1": {2, 64, 55, 55},
		"pool1": {2, 64, 27, 27},
		"conv2": {2, 192, 27, 27},
		"pool2": {2, 192, 13, 13},
		"conv3": {2, 384, 13, 13},
		"conv5": {2, 256, 13, 13},
		"pool5": {2, 256, 6, 6},
		"fc6":   {2, 4096, 1, 1},
	}
	for name, want := range cases {
		b := net.Blob(name)
		if b == nil {
			t.Fatalf("blob %s missing", name)
		}
		got := [4]int{b.Shape.N, b.Shape.C, b.Shape.H, b.Shape.W}
		if got != want {
			t.Fatalf("%s shape %v, want %v", name, got, want)
		}
	}
	// ~61M parameters (single-column AlexNet).
	p := paramCount(net)
	if p < 60e6 || p > 63e6 {
		t.Fatalf("AlexNet params = %d, want ~61M", p)
	}
	if got := countConvLayers(net); got != 5 {
		t.Fatalf("conv layers = %d, want 5", got)
	}
}

func TestResNet18ShapeAndParams(t *testing.T) {
	net, _ := ResNet18(timingCtx(), 2, 1000)
	if err := net.Setup(); err != nil {
		t.Fatal(err)
	}
	if b := net.Blob("pool1"); b == nil || b.Shape.H != 56 {
		t.Fatalf("stem output wrong: %+v", b)
	}
	if b := net.Blob("res5.1.out"); b == nil || b.Shape.C != 512 || b.Shape.H != 7 {
		t.Fatalf("final stage wrong: %+v", b)
	}
	p := paramCount(net)
	if p < 11e6 || p > 12.5e6 {
		t.Fatalf("ResNet-18 params = %d, want ~11.7M", p)
	}
	// 8 blocks x 2 convs + stem + 3 downsamples = 20.
	if got := countConvLayers(net); got != 20 {
		t.Fatalf("conv layers = %d, want 20", got)
	}
}

func TestResNet50ShapeAndParams(t *testing.T) {
	net, _ := ResNet50(timingCtx(), 2, 1000)
	if err := net.Setup(); err != nil {
		t.Fatal(err)
	}
	if b := net.Blob("res5.2.out"); b == nil || b.Shape.C != 2048 || b.Shape.H != 7 {
		t.Fatalf("final stage wrong: %+v", b)
	}
	p := paramCount(net)
	if p < 25e6 || p > 26.5e6 {
		t.Fatalf("ResNet-50 params = %d, want ~25.6M", p)
	}
	// 16 blocks x 3 + 4 projections + stem = 53.
	if got := countConvLayers(net); got != 53 {
		t.Fatalf("conv layers = %d, want 53", got)
	}
}

func TestDenseNet40Shapes(t *testing.T) {
	net, _ := DenseNet40(timingCtx(), 2, 40, 10)
	if err := net.Setup(); err != nil {
		t.Fatal(err)
	}
	// Channel growth: 16 + 12*40 = 496 after block 1.
	if b := net.Blob("dense1.11.cat"); b == nil || b.Shape.C != 496 || b.Shape.H != 32 {
		t.Fatalf("block1 output wrong: %+v", b)
	}
	if b := net.Blob("trans1.pool"); b == nil || b.Shape.H != 16 {
		t.Fatalf("transition1 wrong: %+v", b)
	}
	if b := net.Blob("dense3.11.cat"); b == nil || b.Shape.C != 16+3*12*40 || b.Shape.H != 8 {
		t.Fatalf("block3 output wrong: %+v", b)
	}
	// 1 stem + 36 dense + 2 transition convolutions.
	if got := countConvLayers(net); got != 39 {
		t.Fatalf("conv layers = %d, want 39", got)
	}
}

func TestInceptionModuleShape(t *testing.T) {
	net := InceptionModule(timingCtx(), 4)
	if err := net.Setup(); err != nil {
		t.Fatal(err)
	}
	out := net.Blob("out")
	if out == nil || out.Shape.C != 256 || out.Shape.H != 28 {
		t.Fatalf("inception output wrong: %+v", out)
	}
	if got := countConvLayers(net); got != 6 {
		t.Fatalf("conv layers = %d, want 6", got)
	}
}

// Every zoo network must produce a timing report under the simulated
// clock with convolutions contributing a plausible share.
func TestZooNetworksTime(t *testing.T) {
	builders := map[string]func(ctx *dnn.Context) *dnn.Net{
		"alexnet":  func(ctx *dnn.Context) *dnn.Net { n, _ := AlexNet(ctx, 16, 1000); return n },
		"resnet18": func(ctx *dnn.Context) *dnn.Net { n, _ := ResNet18(ctx, 8, 1000); return n },
		"densenet": func(ctx *dnn.Context) *dnn.Net { n, _ := DenseNet40(ctx, 8, 12, 10); return n },
	}
	for name, build := range builders {
		net := build(timingCtx())
		rep, err := net.Time(1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		total := rep.Total()
		convT := rep.SumMatching(IsConvLayer)
		if total <= 0 || convT <= 0 || convT > total {
			t.Fatalf("%s: total %v conv %v", name, total, convT)
		}
		frac := float64(convT) / float64(total)
		if frac < 0.2 {
			t.Fatalf("%s: conv fraction %.2f implausibly low", name, frac)
		}
		t.Logf("%s: total %v, conv %.0f%%", name, total, 100*frac)
	}
}

// Training a tiny DenseNet variant end-to-end exercises concat backward
// through the real compute path.
func TestDenseNetTrainStep(t *testing.T) {
	h := cudnn.NewHandle(device.P100, cudnn.ModelBackend)
	ctx := dnn.NewContext(h, h, 8<<20)
	net, loss := DenseNet40(ctx, 2, 4, 10)
	if err := net.Setup(); err != nil {
		t.Fatal(err)
	}
	net.InputBlob().Data.Fill(0.1)
	loss.Labels = []int{1, 2}
	if err := net.Forward(); err != nil {
		t.Fatal(err)
	}
	if err := net.Backward(); err != nil {
		t.Fatal(err)
	}
	if loss.Loss <= 0 {
		t.Fatal("loss must be positive")
	}
}

// Every name Build accepts builds and sets up on a model-only handle; an
// unknown name errors.
func TestBuildNames(t *testing.T) {
	for _, name := range Names() {
		net, loss, err := Build(timingCtx(), name, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := net.Setup(); err != nil {
			t.Fatalf("%s: setup: %v", name, err)
		}
		if (loss == nil) != (name == "inception") {
			t.Fatalf("%s: loss head %v", name, loss)
		}
	}
	if _, _, err := Build(timingCtx(), "bogus", 2); err == nil {
		t.Fatal("unknown network must error")
	}
}

func TestIsConvLayer(t *testing.T) {
	if !IsConvLayer("res2.0.a.conv") || !IsConvLayer("conv2") || IsConvLayer("pool1") || IsConvLayer("fc6") {
		t.Fatal("IsConvLayer misclassifies")
	}
}

func TestCaffeAlexNetShapeAndParams(t *testing.T) {
	net, _ := CaffeAlexNet(timingCtx(), 2, 1000)
	if err := net.Setup(); err != nil {
		t.Fatal(err)
	}
	// Caffe AlexNet blob shapes (227x227 input, no conv1 padding).
	cases := map[string][4]int{
		"conv1": {2, 96, 55, 55},
		"pool1": {2, 96, 27, 27},
		"conv2": {2, 256, 27, 27},
		"pool2": {2, 256, 13, 13},
		"conv3": {2, 384, 13, 13},
		"conv5": {2, 256, 13, 13},
		"pool5": {2, 256, 6, 6},
	}
	for name, want := range cases {
		b := net.Blob(name)
		if b == nil {
			t.Fatalf("blob %s missing", name)
		}
		got := [4]int{b.Shape.N, b.Shape.C, b.Shape.H, b.Shape.W}
		if got != want {
			t.Fatalf("%s shape %v, want %v", name, got, want)
		}
	}
	// Caffe AlexNet has ~61M parameters (grouped convs halve conv2/4/5).
	p := paramCount(net)
	if p < 60e6 || p > 62e6 {
		t.Fatalf("CaffeAlexNet params = %d, want ~61M", p)
	}
}

func TestCaffeAlexNetTimes(t *testing.T) {
	net, _ := CaffeAlexNet(timingCtx(), 16, 1000)
	rep, err := net.Time(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total() <= 0 || rep.SumMatching(IsConvLayer) <= 0 {
		t.Fatal("timing failed")
	}
}
