package workload

import "testing"

func TestAllModelsValidate(t *testing.T) {
	for _, res := range []int{224, 512} {
		for _, m := range Models(res) {
			if m.Resolution != res {
				t.Errorf("%s: resolution %d, want %d", m.Name, m.Resolution, res)
			}
			if len(m.Layers) == 0 {
				t.Fatalf("%s@%d: no layers", m.Name, res)
			}
			for _, l := range m.Layers {
				if err := l.Validate(); err != nil {
					t.Errorf("%s@%d: %v", m.Name, res, err)
				}
				if l.Model != m.Name {
					t.Errorf("%s@%d: layer %s carries model %q", m.Name, res, l.Name, l.Model)
				}
			}
		}
	}
}

func TestModelLayerCounts(t *testing.T) {
	tests := []struct {
		m    Model
		want int
	}{
		{AlexNet(224), 8},    // 5 conv + 3 fc
		{VGG16(224), 16},     // 13 conv + 3 fc
		{ResNet50(224), 54},  // 1 + (3+4+6+3)*3 + 4 branch1 + 1 fc
		{DarkNet19(224), 19}, // 19 conv
	}
	for _, tt := range tests {
		if got := len(tt.m.Layers); got != tt.want {
			t.Errorf("%s: %d layers, want %d", tt.m.Name, got, tt.want)
		}
	}
}

func TestVGG16Shapes(t *testing.T) {
	m := VGG16(224)
	c1, err := m.Layer("conv1")
	if err != nil {
		t.Fatal(err)
	}
	if c1.HO != 224 || c1.CO != 64 || c1.CI != 3 {
		t.Errorf("conv1 = %v", c1)
	}
	c12, err := m.Layer("conv12")
	if err != nil {
		t.Fatal(err)
	}
	// conv12 is the middle conv of block 5: 14x14, 512->512, 3x3.
	if c12.HO != 14 || c12.WO != 14 || c12.CO != 512 || c12.CI != 512 || c12.R != 3 {
		t.Errorf("conv12 = %v", c12)
	}
	fc, err := m.Layer("fc14")
	if err != nil {
		t.Fatal(err)
	}
	if fc.CI != 7*7*512 || fc.CO != 4096 || fc.R != 1 {
		t.Errorf("fc14 = %v", fc)
	}
}

func TestResNet50Shapes(t *testing.T) {
	m := ResNet50(224)
	c1, err := m.Layer("conv1")
	if err != nil {
		t.Fatal(err)
	}
	if c1.HO != 112 || c1.CO != 64 || c1.R != 7 || c1.StrideH != 2 {
		t.Errorf("conv1 = %v", c1)
	}
	a, err := m.Layer("res2a_branch2a")
	if err != nil {
		t.Fatal(err)
	}
	if a.HO != 56 || a.CO != 64 || a.CI != 64 || a.R != 1 {
		t.Errorf("res2a_branch2a = %v", a)
	}
	b, err := m.Layer("res2a_branch2b")
	if err != nil {
		t.Fatal(err)
	}
	if b.HO != 56 || b.CO != 64 || b.CI != 64 || b.R != 3 {
		t.Errorf("res2a_branch2b = %v", b)
	}
	// Stage-5 output is 7x7x2048; the model is "wide" with up to 2048 channels.
	c, err := m.Layer("res5c_branch2c")
	if err != nil {
		t.Fatal(err)
	}
	if c.HO != 7 || c.CO != 2048 {
		t.Errorf("res5c_branch2c = %v", c)
	}
	fc, err := m.Layer("fc1000")
	if err != nil {
		t.Fatal(err)
	}
	if fc.CI != 2048 || fc.CO != 1000 {
		t.Errorf("fc1000 = %v", fc)
	}
}

func TestAlexNetShapes(t *testing.T) {
	m := AlexNet(224)
	c1 := m.Layers[0]
	if c1.HO != 55 || c1.CO != 96 || c1.R != 11 {
		t.Errorf("conv1 = %v", c1)
	}
	fc6, err := m.Layer("fc6")
	if err != nil {
		t.Fatal(err)
	}
	if fc6.CI != 6*6*256 || fc6.CO != 4096 {
		t.Errorf("fc6 = %v", fc6)
	}
}

func TestDarkNet19Shapes(t *testing.T) {
	m := DarkNet19(224)
	last := m.Layers[len(m.Layers)-1]
	if last.Name != "conv19" || last.CO != 1000 || last.CI != 1024 || last.HO != 7 {
		t.Errorf("conv19 = %v", last)
	}
	// DarkNet-19 and VGG-16 keep large feature maps deeper into the net than
	// ResNet-50 (§V-B): activations at the layer-1~2 peak are ~4x ResNet's.
	peak := func(m Model) int64 {
		var p int64
		for _, l := range m.Layers {
			p = max(p, l.InputBytes()+l.OutputBytes())
		}
		return p
	}
	dn, rn := peak(DarkNet19(224)), peak(ResNet50(224))
	if dn <= rn {
		t.Errorf("expected DarkNet peak activations %d > ResNet %d", dn, rn)
	}
}

func TestResolutionScaling(t *testing.T) {
	for _, mk := range []func(int) Model{AlexNet, VGG16, ResNet50, DarkNet19} {
		m224, m512 := mk(224), mk(512)
		if len(m224.Layers) != len(m512.Layers) {
			t.Fatalf("%s: layer count differs across resolutions", m224.Name)
		}
		if m512.TotalMACs() <= m224.TotalMACs() {
			t.Errorf("%s: 512 MACs %d <= 224 MACs %d", m224.Name, m512.TotalMACs(), m224.TotalMACs())
		}
	}
}

func TestLayerLookupError(t *testing.T) {
	if _, err := VGG16(224).Layer("nope"); err == nil {
		t.Error("expected error for unknown layer")
	}
}

func TestRepresentativeLayers(t *testing.T) {
	for _, res := range []int{224, 512} {
		reps, err := RepresentativeLayers(res)
		if err != nil {
			t.Fatal(err)
		}
		if len(reps) != 5 {
			t.Fatalf("got %d representative layers, want 5", len(reps))
		}
		// Each role's layer has the shape that names it (§V-B): 1×1
		// kernels are point-wise, kernels of 5×5 and up large; the 3×3
		// roles differ in their activation-to-weight balance, which only
		// holds at the 224×224 classification shapes the paper fixes them
		// at (at 512×512 the balance of 3×3 layers shifts).
		for _, r := range reps {
			l := r.Layer
			in, wt := l.InputBytes(), l.WeightBytes()
			var ok bool
			switch r.Role {
			case "point-wise":
				ok = l.R == 1 && l.S == 1
			case "large-kernel":
				ok = l.R >= 5 && l.S >= 5
			case "activation-intensive":
				ok = l.R == 3 && (res != 224 || in > 8*wt)
			case "weight-intensive":
				ok = l.R == 3 && (res != 224 || wt > 8*in)
			case "common":
				ok = l.R == 3 && (res != 224 || (in <= 8*wt && wt <= 8*in))
			}
			if !ok {
				t.Errorf("%s: layer %v does not have the role's shape", r.Role, l)
			}
		}
	}
}

func TestPeakWeights(t *testing.T) {
	// §VI-B2: peak weight storage of DarkNet-19 (conv18: 3x3 512->1024) is
	// 4.5MB, larger than VGG/ResNet single conv layers (2.25MB).
	dn := DarkNet19(224)
	var peakConv int64
	for _, l := range dn.Layers {
		peakConv = max(peakConv, l.WeightBytes())
	}
	if peakConv != int64(1024*512*9) {
		t.Errorf("DarkNet peak conv weights = %d, want %d", peakConv, 1024*512*9)
	}
}

func TestLoad(t *testing.T) {
	for _, name := range []string{"alexnet", "VGG16", "vgg-16", "ResNet50", "darknet19", "MobileNetV2"} {
		m, err := Load(name, 224)
		if err != nil {
			t.Errorf("Load(%q): %v", name, err)
			continue
		}
		if len(m.Layers) == 0 {
			t.Errorf("Load(%q): empty model", name)
		}
	}
	if _, err := Load("squeezenet", 224); err == nil {
		t.Error("expected unknown-model error")
	}
	if _, err := Load("/nonexistent/model.txt", 224); err == nil {
		t.Error("expected file error")
	}
}
