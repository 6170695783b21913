package workload

import (
	"testing"
	"testing/quick"
)

func TestOutDim(t *testing.T) {
	tests := []struct {
		in, k, s, p, want int
	}{
		{224, 3, 1, 1, 224}, // same-padding 3x3
		{224, 11, 4, 2, 55}, // AlexNet conv1
		{224, 7, 2, 3, 112}, // ResNet conv1
		{112, 3, 2, 1, 56},  // ResNet maxpool
		{224, 2, 2, 0, 112}, // VGG pool
		{56, 1, 1, 0, 56},   // point-wise
		{512, 7, 2, 3, 256}, // ResNet conv1 at 512
	}
	for _, tt := range tests {
		if got := OutDim(tt.in, tt.k, tt.s, tt.p); got != tt.want {
			t.Errorf("OutDim(%d,%d,%d,%d) = %d, want %d", tt.in, tt.k, tt.s, tt.p, got, tt.want)
		}
	}
}

func TestInExtent(t *testing.T) {
	tests := []struct {
		out, k, s, want int
	}{
		{56, 3, 1, 58},
		{56, 1, 1, 56},
		{112, 7, 2, 229},
		{1, 3, 1, 3},
		{0, 3, 1, 0},
	}
	for _, tt := range tests {
		if got := InExtent(tt.out, tt.k, tt.s); got != tt.want {
			t.Errorf("InExtent(%d,%d,%d) = %d, want %d", tt.out, tt.k, tt.s, got, tt.want)
		}
	}
}

// InExtent must invert OutDim for zero padding: producing OutDim(in,...)
// outputs requires no more input than was provided.
func TestInExtentInvertsOutDim(t *testing.T) {
	f := func(in uint16, k, s uint8) bool {
		i, kk, ss := int(in%512)+1, int(k%7)+1, int(s%4)+1
		if kk > i {
			return true
		}
		out := OutDim(i, kk, ss, 0)
		need := InExtent(out, kk, ss)
		return need <= i && need > i-ss
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLayerDerivedQuantities(t *testing.T) {
	// VGG-16 conv1 at 224: 224x224x64 from 3 channels, 3x3.
	l := Layer{Model: "VGG-16", Name: "conv1", HO: 224, WO: 224, CO: 64, CI: 3,
		R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := l.MACs(), int64(224*224*64)*int64(3*3*3); got != want {
		t.Errorf("MACs = %d, want %d", got, want)
	}
	if got, want := l.WeightBytes(), int64(64*3*3*3); got != want {
		t.Errorf("WeightBytes = %d, want %d", got, want)
	}
	if got, want := l.OutputBytes(), int64(224*224*64); got != want {
		t.Errorf("OutputBytes = %d, want %d", got, want)
	}
	if got, want := l.InputBytes(), int64(226*226*3); got != want {
		t.Errorf("InputBytes = %d, want %d", got, want)
	}
}

func TestLayerKind(t *testing.T) {
	tests := []struct {
		name string
		l    Layer
		want Kind
	}{
		{"pointwise", Layer{HO: 56, WO: 56, CO: 64, CI: 64, R: 1, S: 1, StrideH: 1, StrideW: 1}, PointWise},
		{"large kernel", Layer{HO: 112, WO: 112, CO: 64, CI: 3, R: 7, S: 7, StrideH: 2, StrideW: 2}, LargeKernel},
		{"activation intensive", Layer{HO: 224, WO: 224, CO: 64, CI: 3, R: 3, S: 3, StrideH: 1, StrideW: 1}, ActivationIntensive},
		{"weight intensive", Layer{HO: 14, WO: 14, CO: 512, CI: 512, R: 3, S: 3, StrideH: 1, StrideW: 1}, WeightIntensive},
		{"common", Layer{HO: 56, WO: 56, CO: 64, CI: 64, R: 3, S: 3, StrideH: 1, StrideW: 1}, Common},
	}
	for _, tt := range tests {
		if got := tt.l.Kind(); got != tt.want {
			t.Errorf("%s: Kind = %v, want %v", tt.name, got, tt.want)
		}
	}
	// Across the zoo: ResNet-50 has many point-wise (1x1) layers; VGG-16 has
	// no large kernel, and its only point-wise layers are the reorganized FC
	// layers.
	count := func(m Model, k Kind) int {
		n := 0
		for _, l := range m.Layers {
			if l.Kind() == k {
				n++
			}
		}
		return n
	}
	if n := count(ResNet50(224), PointWise); n < 30 {
		t.Errorf("ResNet point-wise layers = %d", n)
	}
	if n := count(VGG16(224), LargeKernel); n != 0 {
		t.Errorf("VGG large-kernel layers = %d", n)
	}
	if n := count(VGG16(224), PointWise); n != 3 {
		t.Errorf("VGG point-wise (FC) layers = %d", n)
	}
}

func TestKindString(t *testing.T) {
	for k := ActivationIntensive; k <= Common; k++ {
		if k.String() == "" || k.String()[0] == 'K' {
			t.Errorf("Kind(%d) has no name", int(k))
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestValidateRejectsBadLayers(t *testing.T) {
	good := Layer{HO: 8, WO: 8, CO: 8, CI: 8, R: 3, S: 3, StrideH: 1, StrideW: 1}
	bad := []func(*Layer){
		func(l *Layer) { l.HO = 0 },
		func(l *Layer) { l.WO = -1 },
		func(l *Layer) { l.CO = 0 },
		func(l *Layer) { l.CI = 0 },
		func(l *Layer) { l.R = 0 },
		func(l *Layer) { l.S = 0 },
		func(l *Layer) { l.StrideH = 0 },
		func(l *Layer) { l.PadH = -1 },
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good layer rejected: %v", err)
	}
	for i, mutate := range bad {
		l := good
		mutate(&l)
		if err := l.Validate(); err == nil {
			t.Errorf("mutation %d accepted invalid layer %+v", i, l)
		}
	}
}

func TestTileInputBytesHalo(t *testing.T) {
	l := Layer{HO: 56, WO: 56, CO: 64, CI: 64, R: 3, S: 3, StrideH: 1, StrideW: 1}
	// A 14x14 output tile needs a 16x16 input patch per channel.
	if got, want := l.TileInputBytes(14, 14, 64), int64(16*16*64); got != want {
		t.Errorf("TileInputBytes = %d, want %d", got, want)
	}
	// Four 28x28 quadrant tiles together read more than the whole input once.
	whole := l.TileInputBytes(56, 56, 64)
	quad := 4 * l.TileInputBytes(28, 28, 64)
	if quad <= whole {
		t.Errorf("expected halo duplication: 4 quadrants %d <= whole %d", quad, whole)
	}
}

func TestScale(t *testing.T) {
	l := Layer{HO: 224, WO: 224, CO: 64, CI: 3, R: 3, S: 3, StrideH: 1, StrideW: 1}
	s := l.Scale(512.0 / 224.0)
	if s.HO != 512 || s.WO != 512 {
		t.Errorf("Scale: got %dx%d, want 512x512", s.HO, s.WO)
	}
	if s.CO != l.CO || s.R != l.R {
		t.Error("Scale must not change channels or kernel")
	}
	tiny := l.Scale(0.001)
	if tiny.HO < 1 || tiny.WO < 1 {
		t.Error("Scale must clamp to at least 1")
	}
}
