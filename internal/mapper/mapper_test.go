package mapper

import (
	"slices"
	"testing"

	"nnbaton/internal/hardware"
	"nnbaton/internal/mapping"
	"nnbaton/internal/workload"
)

var cm = hardware.MustCostModel()

func TestTileCandidates(t *testing.T) {
	got := tileCandidates(nil, 56, 56)
	if len(got) == 0 || got[0] != 56 {
		t.Fatalf("tileCandidates(nil, 56) = %v", got)
	}
	seen := map[int]bool{}
	for _, v := range got {
		if v < 1 || v > 56 || seen[v] {
			t.Fatalf("bad candidate list %v", got)
		}
		seen[v] = true
	}
	// Limit is respected and the list never comes back empty.
	for _, v := range tileCandidates(nil, 100, 10) {
		if v > 10 {
			t.Errorf("candidate %d exceeds limit", v)
		}
	}
	if got := tileCandidates(nil, 5, 0); len(got) == 0 {
		t.Error("empty candidates for tiny limit")
	}
}

func TestPlanarPairsWithinBounds(t *testing.T) {
	for _, p := range planarPairs(nil, 56, 28) {
		if p[0] < 1 || p[0] > 56 || p[1] < 1 || p[1] > 28 {
			t.Errorf("pair %v out of bounds", p)
		}
	}
	if len(planarPairs(nil, 1, 1)) != 1 {
		t.Errorf("1x1 plane pairs = %v", planarPairs(nil, 1, 1))
	}
}

// TestCoreTilePairsRespectBuffers holds the core-tile generator to the
// feasibility model's core-tile needs (mapping.BufferNeeds): every listed
// tile's O-L1 and A-L1 needs fit, and every square tile up to 8×8 whose
// needs fit is listed. The depthwise layer's A-L1 slice spans one group's
// input channel, not P of them, so on the case study's 800 B A-L1 it fits
// squares up to 8×8 where the dense layer's stops at 5×5.
func TestCoreTilePairsRespectBuffers(t *testing.T) {
	dense := workload.Layer{Name: "dense", HO: 56, WO: 56, CO: 64, CI: 64, R: 3, S: 3, StrideH: 1, StrideW: 1}
	dw := dense
	dw.Name, dw.Groups = "depthwise", dense.CI
	hw := hardware.CaseStudy()
	for _, l := range []workload.Layer{dense, dw} {
		fits := func(hoc, woc int) bool {
			m := mapping.Mapping{HOc: hoc, WOc: woc}
			n := m.BufferNeeds(&l, &hw)
			return n.OL1 <= int64(hw.OL1Bytes) && n.AL1 <= int64(hw.AL1Bytes)
		}
		pairs := coreTilePairs(nil, &l, &hw, 14, 14)
		if len(pairs) == 0 {
			t.Fatalf("%s: no core tile candidates", l.Name)
		}
		for _, p := range pairs {
			if !fits(p[0], p[1]) {
				t.Errorf("%s: pair %v overflows O-L1 or A-L1", l.Name, p)
			}
		}
		for s := 1; s <= 8; s++ {
			if fits(s, s) && !slices.Contains(pairs, [2]int{s, s}) {
				t.Errorf("%s: square %dx%d fits O-L1 and A-L1 but is not listed in %v", l.Name, s, s, pairs)
			}
		}
	}
}

func TestChipletSplitsCoverAllKinds(t *testing.T) {
	hw := hardware.CaseStudy() // 8 cores
	kinds := map[mapping.Spatial]int{}
	for _, s := range chipletSplits(nil, hw) {
		kinds[s.kind]++
		if s.csplit*s.pattern.Parts() != hw.Cores {
			t.Errorf("split %+v does not cover %d cores", s, hw.Cores)
		}
	}
	if kinds[mapping.SpatialC] != 1 || kinds[mapping.SpatialP] != 4 || kinds[mapping.SpatialH] == 0 {
		t.Errorf("split kinds = %v", kinds)
	}
}

func TestSearchFindsValidOptimum(t *testing.T) {
	l := workload.Layer{Model: "t", Name: "conv", HO: 56, WO: 56, CO: 64, CI: 64,
		R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	hw := hardware.CaseStudy()
	opt, err := Search(l, hw, cm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Energy.Total() <= 0 || opt.Cycles <= 0 {
		t.Fatalf("degenerate optimum: %+v", opt)
	}
	if err := opt.Analysis.Map.Validate(l, hw); err != nil {
		t.Errorf("optimum mapping invalid: %v", err)
	}
	// The optimum can be no worse than a hand-written baseline mapping.
	base := mapping.Mapping{
		PackageSpatial: mapping.SpatialC, PackageTemporal: mapping.ChannelPriority,
		ChipletSpatial: mapping.SpatialC, ChipletCSplit: 8, ChipletPattern: mapping.Pattern{Rows: 1, Cols: 1},
		ChipletTemporal: mapping.PlanePriority,
		HOt:             14, WOt: 14, COt: 16, HOc: 4, WOc: 4, Rotate: true,
	}
	opts := SearchAll(l, hw, cm, Config{KeepTop: 3})
	if len(opts) == 0 || opts[0].Energy.Total() > opts[len(opts)-1].Energy.Total() {
		t.Fatalf("SearchAll not sorted: %v", len(opts))
	}
	if err := base.Validate(l, hw); err != nil {
		t.Fatalf("baseline invalid: %v", err)
	}
	// Search includes the baseline's combo, so it cannot be worse.
	if bb := BestPerSpatialCombo(l, hw, cm)["(C,C)"]; bb.Energy.Total() > 0 &&
		opt.Energy.Total() > bb.Energy.Total() {
		t.Errorf("global optimum %.0f worse than (C,C) best %.0f", opt.Energy.Total(), bb.Energy.Total())
	}
}

func TestSearchNoValidMapping(t *testing.T) {
	// CO=2 cannot C-split over 4 chiplets and a 1x1 plane cannot P-split:
	// no valid mapping exists.
	l := workload.Layer{Model: "t", Name: "impossible", HO: 1, WO: 1, CO: 2, CI: 8,
		R: 1, S: 1, StrideH: 1, StrideW: 1}
	if _, err := Search(l, hardware.CaseStudy(), cm, Config{}); err == nil {
		t.Error("expected no-mapping error")
	}
}

func TestBestPerSpatialComboFig11Shape(t *testing.T) {
	reps, err := workload.RepresentativeLayers(224)
	if err != nil {
		t.Fatal(err)
	}
	hw := hardware.CaseStudy()
	for _, r := range reps {
		combos := BestPerSpatialCombo(r.Layer, hw, cm)
		if len(combos) == 0 {
			t.Fatalf("%s: no combos", r.Role)
		}
		for k, o := range combos {
			if o.Energy.Total() <= 0 {
				t.Errorf("%s %s: non-positive energy", r.Role, k)
			}
		}
	}
	// §VI-A1 directionality: weight-intensive layers prefer the C-type
	// package split (rotating cheap activations instead of massive
	// weights), activation-intensive layers prefer P-type.
	bestPkg := func(l workload.Layer, pkg string) float64 {
		best := -1.0
		for k, o := range BestPerSpatialCombo(l, hw, cm) {
			if k[1] == pkg[0] && (best < 0 || o.Energy.Total() < best) {
				best = o.Energy.Total()
			}
		}
		return best
	}
	wi := reps[1].Layer // VGG-16 conv12
	if c, p := bestPkg(wi, "C"), bestPkg(wi, "P"); c <= 0 || p <= 0 || c >= p {
		t.Errorf("weight-intensive: C-type %.0f should beat P-type %.0f", c, p)
	}
	ai := reps[0].Layer // VGG-16 conv1
	if c, p := bestPkg(ai, "C"), bestPkg(ai, "P"); p <= 0 || (c > 0 && p >= c) {
		t.Errorf("activation-intensive: P-type %.0f should beat C-type %.0f", p, c)
	}
}

func TestSearchModel(t *testing.T) {
	m := workload.AlexNet(224)
	res, err := SearchModel(m, hardware.CaseStudy(), cm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Layers)+len(res.Skipped) != len(m.Layers) {
		t.Errorf("layers %d + skipped %d != %d", len(res.Layers), len(res.Skipped), len(m.Layers))
	}
	if res.Energy.Total() <= 0 || res.Cycles <= 0 {
		t.Errorf("degenerate model result")
	}
}

func TestDisableRotation(t *testing.T) {
	l := workload.Layer{Model: "t", Name: "conv", HO: 56, WO: 56, CO: 64, CI: 64,
		R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	hw := hardware.CaseStudy()
	with, err := Search(l, hw, cm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Search(l, hw, cm, Config{DisableRotation: true})
	if err != nil {
		t.Fatal(err)
	}
	if without.Analysis.Map.Rotate {
		t.Error("rotation not disabled")
	}
	if with.Energy.Total() > without.Energy.Total() {
		t.Errorf("rotation should not hurt: with=%.0f without=%.0f",
			with.Energy.Total(), without.Energy.Total())
	}
}

func BenchmarkSearchLayer(b *testing.B) {
	l := workload.Layer{Model: "t", Name: "conv", HO: 56, WO: 56, CO: 64, CI: 64,
		R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	hw := hardware.CaseStudy()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Search(l, hw, cm, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSearchDepthwiseLayer(t *testing.T) {
	// A MobileNetV2 depthwise layer: Groups = CI = CO = 96.
	dw := workload.Layer{Model: "mnv2", Name: "dw", HO: 28, WO: 28, CO: 96, CI: 96,
		R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 96}
	dense := dw
	dense.Groups = 1
	hw := hardware.CaseStudy()
	dwOpt, err := Search(dw, hw, cm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	denseOpt, err := Search(dense, hw, cm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The depthwise layer does 1/96 of the MACs; its optimal energy must be
	// far below the dense variant, but not proportionally (activations
	// dominate and are unchanged).
	if dwOpt.Energy.Total() >= denseOpt.Energy.Total() {
		t.Errorf("depthwise %.0f pJ should beat dense %.0f pJ",
			dwOpt.Energy.Total(), denseOpt.Energy.Total())
	}
	if dwOpt.Energy.MAC*90 > denseOpt.Energy.MAC*2 {
		t.Errorf("depthwise MAC energy %.0f vs dense %.0f", dwOpt.Energy.MAC, denseOpt.Energy.MAC)
	}
}

func TestSearchModelMobileNetV2(t *testing.T) {
	if testing.Short() {
		t.Skip("full MobileNetV2 search in -short mode")
	}
	res, err := SearchModel(workload.MobileNetV2(224), hardware.CaseStudy(), cm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skipped) > len(workload.MobileNetV2(224).Layers)/4 {
		t.Errorf("too many unmappable MobileNetV2 layers: %v", res.Skipped)
	}
	if res.Energy.Total() <= 0 {
		t.Error("degenerate energy")
	}
}
