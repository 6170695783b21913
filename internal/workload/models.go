package workload

import (
	"fmt"
	"strings"
)

// Model is an ordered list of layer workloads for one network at one input
// resolution. Pooling and activation layers carry negligible compute and are
// folded into the spatial bookkeeping (the paper evaluates CONV and FC layers
// only, Fig 13).
type Model struct {
	Name       string
	Resolution int // square input resolution (224 or 512 in the paper)
	Layers     []Layer
}

// TotalMACs sums MAC operations across all layers.
func (m Model) TotalMACs() int64 {
	var sum int64
	for _, l := range m.Layers {
		sum += l.MACs()
	}
	return sum
}

// LayerNames returns the layer names in definition order.
func (m Model) LayerNames() []string {
	names := make([]string, len(m.Layers))
	for i, l := range m.Layers {
		names[i] = l.Name
	}
	return names
}

// Layer returns the named layer, or an error listing the model's valid layer
// names if there is no such layer.
func (m Model) Layer(name string) (Layer, error) {
	for _, l := range m.Layers {
		if l.Name == name {
			return l, nil
		}
	}
	return Layer{}, fmt.Errorf("workload: model %s has no layer %q (valid layers: %s)",
		m.Name, name, strings.Join(m.LayerNames(), ", "))
}

// builder threads the spatial extent of the feature map through a network
// definition so that each model can be instantiated at any input resolution.
type builder struct {
	model  string
	h, w   int
	c      int
	seq    int
	layers []Layer
}

func newBuilder(model string, resolution, channels int) *builder {
	return &builder{model: model, h: resolution, w: resolution, c: channels}
}

// conv appends a convolution layer and updates the feature-map shape.
// An empty name auto-numbers the layer convN in definition order.
func (b *builder) conv(name string, co, k, stride, pad int) {
	b.seq++
	if name == "" {
		name = fmt.Sprintf("conv%d", b.seq)
	}
	l := Layer{
		Model: b.model, Name: name,
		HO: OutDim(b.h, k, stride, pad), WO: OutDim(b.w, k, stride, pad),
		CO: co, CI: b.c,
		R: k, S: k, StrideH: stride, StrideW: stride, PadH: pad, PadW: pad,
	}
	b.layers = append(b.layers, l)
	b.h, b.w, b.c = l.HO, l.WO, co
}

// pool updates the feature-map shape for a max/avg pooling stage.
func (b *builder) pool(k, stride, pad int) {
	b.h = OutDim(b.h, k, stride, pad)
	b.w = OutDim(b.w, k, stride, pad)
}

// globalPool collapses the spatial extent to 1×1.
func (b *builder) globalPool() { b.h, b.w = 1, 1 }

// fc appends a fully-connected layer reorganized as a 1×1 point-wise layer
// over the flattened feature map (§VI-A2).
func (b *builder) fc(name string, out int) {
	flat := b.h * b.w * b.c
	l := Layer{
		Model: b.model, Name: name,
		HO: 1, WO: 1, CO: out, CI: flat,
		R: 1, S: 1, StrideH: 1, StrideW: 1,
	}
	b.layers = append(b.layers, l)
	b.h, b.w, b.c = 1, 1, out
}

func (b *builder) build(resolution int) Model {
	return Model{Name: b.model, Resolution: resolution, Layers: b.layers}
}

// AlexNet instantiates AlexNet (5 conv + 3 FC) at the given input resolution.
func AlexNet(resolution int) Model {
	b := newBuilder("AlexNet", resolution, 3)
	b.conv("conv1", 96, 11, 4, 2)
	b.pool(3, 2, 0)
	b.conv("conv2", 256, 5, 1, 2)
	b.pool(3, 2, 0)
	b.conv("conv3", 384, 3, 1, 1)
	b.conv("conv4", 384, 3, 1, 1)
	b.conv("conv5", 256, 3, 1, 1)
	b.pool(3, 2, 0)
	b.fc("fc6", 4096)
	b.fc("fc7", 4096)
	b.fc("fc8", 1000)
	return b.build(resolution)
}

// VGG16 instantiates VGG-16 (13 conv + 3 FC) at the given input resolution.
// Convolutions are auto-numbered conv1..conv13; the paper's "conv12" is the
// middle 3×3 512→512 layer of the last block.
func VGG16(resolution int) Model {
	b := newBuilder("VGG-16", resolution, 3)
	widths := []int{64, 64, 0, 128, 128, 0, 256, 256, 256, 0, 512, 512, 512, 0, 512, 512, 512, 0}
	for _, w := range widths {
		if w == 0 {
			b.pool(2, 2, 0)
			continue
		}
		b.conv("", w, 3, 1, 1)
	}
	b.fc("fc14", 4096)
	b.fc("fc15", 4096)
	b.fc("fc16", 1000)
	return b.build(resolution)
}

// resNetStage appends one ResNet bottleneck stage. blocks are labelled
// res<stage><a,b,...>; the first block carries the projection shortcut
// (branch1) and, for stages ≥3, a stride-2 spatial reduction.
func resNetStage(b *builder, stage, blocks, mid, out, firstStride int) {
	for i := 0; i < blocks; i++ {
		prefix := fmt.Sprintf("res%d%c", stage, 'a'+i)
		stride := 1
		if i == 0 {
			stride = firstStride
			b.convAt(prefix+"_branch1", out, 1, stride, 0, false)
		}
		b.conv(prefix+"_branch2a", mid, 1, stride, 0)
		b.conv(prefix+"_branch2b", mid, 3, 1, 1)
		b.conv(prefix+"_branch2c", out, 1, 1, 0)
	}
}

// convAt appends a convolution without advancing the tracked feature-map
// shape when advance is false — used for the ResNet projection shortcut,
// which runs in parallel with the residual branch.
func (b *builder) convAt(name string, co, k, stride, pad int, advance bool) {
	h, w, c := b.h, b.w, b.c
	b.conv(name, co, k, stride, pad)
	if !advance {
		b.h, b.w, b.c = h, w, c
	}
}

// ResNet50 instantiates ResNet-50 (53 conv + 1 FC) at the given resolution.
func ResNet50(resolution int) Model {
	b := newBuilder("ResNet-50", resolution, 3)
	b.conv("conv1", 64, 7, 2, 3)
	b.pool(3, 2, 1)
	resNetStage(b, 2, 3, 64, 256, 1)
	resNetStage(b, 3, 4, 128, 512, 2)
	resNetStage(b, 4, 6, 256, 1024, 2)
	resNetStage(b, 5, 3, 512, 2048, 2)
	b.globalPool()
	b.fc("fc1000", 1000)
	return b.build(resolution)
}

// DarkNet19 instantiates DarkNet-19 (19 conv) at the given resolution.
func DarkNet19(resolution int) Model {
	b := newBuilder("DarkNet-19", resolution, 3)
	b.conv("", 32, 3, 1, 1)
	b.pool(2, 2, 0)
	b.conv("", 64, 3, 1, 1)
	b.pool(2, 2, 0)
	b.conv("", 128, 3, 1, 1)
	b.conv("", 64, 1, 1, 0)
	b.conv("", 128, 3, 1, 1)
	b.pool(2, 2, 0)
	b.conv("", 256, 3, 1, 1)
	b.conv("", 128, 1, 1, 0)
	b.conv("", 256, 3, 1, 1)
	b.pool(2, 2, 0)
	for i := 0; i < 2; i++ {
		b.conv("", 512, 3, 1, 1)
		b.conv("", 256, 1, 1, 0)
	}
	b.conv("", 512, 3, 1, 1)
	b.pool(2, 2, 0)
	for i := 0; i < 2; i++ {
		b.conv("", 1024, 3, 1, 1)
		b.conv("", 512, 1, 1, 0)
	}
	b.conv("", 1024, 3, 1, 1)
	b.conv("conv19", 1000, 1, 1, 0)
	return b.build(resolution)
}

// YOLOv2 instantiates the YOLOv2 detection network: the DarkNet-19 backbone
// (without its classifier) plus the detection head. It is the detection-task
// workload that motivates the paper's 512×512 input resolution (§V-B uses
// 512×512 "for detection tasks").
func YOLOv2(resolution int) Model {
	b := newBuilder("YOLOv2", resolution, 3)
	// DarkNet-19 backbone through conv18.
	b.conv("", 32, 3, 1, 1)
	b.pool(2, 2, 0)
	b.conv("", 64, 3, 1, 1)
	b.pool(2, 2, 0)
	b.conv("", 128, 3, 1, 1)
	b.conv("", 64, 1, 1, 0)
	b.conv("", 128, 3, 1, 1)
	b.pool(2, 2, 0)
	b.conv("", 256, 3, 1, 1)
	b.conv("", 128, 1, 1, 0)
	b.conv("", 256, 3, 1, 1)
	b.pool(2, 2, 0)
	for i := 0; i < 2; i++ {
		b.conv("", 512, 3, 1, 1)
		b.conv("", 256, 1, 1, 0)
	}
	b.conv("", 512, 3, 1, 1)
	b.pool(2, 2, 0)
	for i := 0; i < 2; i++ {
		b.conv("", 1024, 3, 1, 1)
		b.conv("", 512, 1, 1, 0)
	}
	b.conv("", 1024, 3, 1, 1)
	// Detection head: two 3x3x1024 convs, the (space-to-depth folded)
	// passthrough merge, and the 1x1 predictor for 5 anchors x 25 values.
	b.conv("conv19", 1024, 3, 1, 1)
	b.conv("conv20", 1024, 3, 1, 1)
	b.c += 256 // passthrough concat: 26x26x512 reorganized to 13x13x2048/8
	b.conv("conv21", 1024, 3, 1, 1)
	b.conv("detect", 125, 1, 1, 0)
	return b.build(resolution)
}

// dwConv appends a depthwise convolution (Groups = CI = CO).
func (b *builder) dwConv(name string, k, stride, pad int) {
	b.seq++
	if name == "" {
		name = fmt.Sprintf("conv%d_dw", b.seq)
	}
	l := Layer{
		Model: b.model, Name: name,
		HO: OutDim(b.h, k, stride, pad), WO: OutDim(b.w, k, stride, pad),
		CO: b.c, CI: b.c, Groups: b.c,
		R: k, S: k, StrideH: stride, StrideW: stride, PadH: pad, PadW: pad,
	}
	b.layers = append(b.layers, l)
	b.h, b.w = l.HO, l.WO
}

// MobileNetV2 instantiates MobileNetV2 (inverted residuals with depthwise
// separable convolutions [Sandler et al., CVPR'18], cited by §V-B). It
// exercises the grouped-convolution extension: depthwise layers have
// Groups = CI = CO and stress the channel-parallel lanes.
func MobileNetV2(resolution int) Model {
	b := newBuilder("MobileNetV2", resolution, 3)
	b.conv("conv1", 32, 3, 2, 1)
	// Inverted residual stages: (expansion t, output channels c, repeats n,
	// first stride s).
	stages := []struct{ t, c, n, s int }{
		{1, 16, 1, 1}, {6, 24, 2, 2}, {6, 32, 3, 2}, {6, 64, 4, 2},
		{6, 96, 3, 1}, {6, 160, 3, 2}, {6, 320, 1, 1},
	}
	block := 0
	for _, st := range stages {
		for i := 0; i < st.n; i++ {
			block++
			stride := 1
			if i == 0 {
				stride = st.s
			}
			prefix := fmt.Sprintf("block%d", block)
			expanded := b.c * st.t
			if st.t != 1 {
				b.conv(prefix+"_expand", expanded, 1, 1, 0)
			}
			b.dwConv(prefix+"_dw", 3, stride, 1)
			b.conv(prefix+"_project", st.c, 1, 1, 0)
		}
	}
	b.conv("conv_last", 1280, 1, 1, 0)
	b.globalPool()
	b.fc("fc", 1000)
	return b.build(resolution)
}

// Models returns the four benchmark networks of §V-B at one resolution.
func Models(resolution int) []Model {
	return []Model{AlexNet(resolution), VGG16(resolution), ResNet50(resolution), DarkNet19(resolution)}
}

// RepresentativeLayer identifies one of the five distinct layer types used in
// the case studies of §VI-A.
type RepresentativeLayer struct {
	Role  string // e.g. "activation-intensive"
	Layer Layer
}

// RepresentativeLayers extracts the five §VI-A case-study layers at the given
// input resolution: VGG-16 conv1 (activation-intensive), VGG-16 conv12
// (weight-intensive), ResNet-50 conv1 (large-kernel), res2a_branch2a
// (point-wise) and res2a_branch2b (common).
func RepresentativeLayers(resolution int) ([]RepresentativeLayer, error) {
	vgg, res := VGG16(resolution), ResNet50(resolution)
	specs := []struct {
		role  string
		model Model
		name  string
	}{
		{"activation-intensive", vgg, "conv1"},
		{"weight-intensive", vgg, "conv12"},
		{"large-kernel", res, "conv1"},
		{"point-wise", res, "res2a_branch2a"},
		{"common", res, "res2a_branch2b"},
	}
	out := make([]RepresentativeLayer, 0, len(specs))
	for _, s := range specs {
		l, err := s.model.Layer(s.name)
		if err != nil {
			return nil, err
		}
		out = append(out, RepresentativeLayer{Role: s.role, Layer: l})
	}
	return out, nil
}
