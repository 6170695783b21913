package nnbaton

import (
	"context"
	"strings"
	"testing"
)

func TestMapLayerQuickstart(t *testing.T) {
	tool := New()
	m := VGG16(224)
	l, err := m.Layer("conv12")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tool.MapLayer(l, CaseStudyHardware())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Energy.Total() <= 0 || rep.Seconds <= 0 || rep.Cycles <= 0 {
		t.Fatalf("degenerate report: %+v", rep)
	}
	if rep.Mapping == "" || !strings.Contains(rep.Mapping, "(") {
		t.Errorf("mapping string = %q", rep.Mapping)
	}
	if rep.Traffic.MACs != l.MACs() {
		t.Errorf("traffic MACs %d != layer MACs %d", rep.Traffic.MACs, l.MACs())
	}
}

func TestMapModelAggregates(t *testing.T) {
	tool := New()
	m := AlexNet(224)
	rep, err := tool.MapModel(m, CaseStudyHardware())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Layers)+len(rep.Skipped) != len(m.Layers) {
		t.Errorf("%d mapped + %d skipped != %d layers", len(rep.Layers), len(rep.Skipped), len(m.Layers))
	}
	var sum float64
	var secs float64
	for _, lr := range rep.Layers {
		sum += lr.Energy.Total()
		secs += lr.Seconds
	}
	if diff := sum - rep.Energy.Total(); diff > 1e-3 || diff < -1e-3 {
		t.Errorf("per-layer energies %.0f do not sum to total %.0f", sum, rep.Energy.Total())
	}
	if diff := secs - rep.Seconds; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("per-layer runtimes do not sum to total")
	}
}

func TestCompareSimbaBand(t *testing.T) {
	tool := New()
	cmp, err := tool.CompareSimba(AlexNet(224), CaseStudyHardware())
	if err != nil {
		t.Fatal(err)
	}
	if cmp.SavingsRatio <= 0 || cmp.SavingsRatio >= 1 {
		t.Errorf("savings ratio %.3f out of (0,1)", cmp.SavingsRatio)
	}
	if cmp.NNBaton.Total() >= cmp.Simba.Total() {
		t.Errorf("NN-Baton %.0f should beat Simba %.0f", cmp.NNBaton.Total(), cmp.Simba.Total())
	}
}

func TestCompareSimbaLayer(t *testing.T) {
	// The layer comparison prices NN-Baton's side with MapLayer's optimal
	// mapping, and a model of that one layer compares the same work.
	tool := New()
	hw := CaseStudyHardware()
	l, err := VGG16(224).Layer("conv3")
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := tool.CompareSimbaLayer(l, hw)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tool.MapLayer(l, hw)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.NNBaton != rep.Energy {
		t.Errorf("NN-Baton side %v, MapLayer %v", cmp.NNBaton, rep.Energy)
	}
	if cmp.Model != l.Model || cmp.SavingsRatio != 1-cmp.NNBaton.Total()/cmp.Simba.Total() {
		t.Errorf("comparison %+v inconsistent", cmp)
	}
	whole, err := tool.CompareSimba(Model{Name: l.Model, Resolution: 224, Layers: []Layer{l}}, hw)
	if err != nil {
		t.Fatal(err)
	}
	if whole != cmp {
		t.Errorf("one-layer model comparison %+v, layer comparison %+v", whole, cmp)
	}
}

func TestSpatialComboStudy(t *testing.T) {
	tool := New()
	m := ResNet50(224)
	l, err := m.Layer("res2a_branch2b")
	if err != nil {
		t.Fatal(err)
	}
	study := tool.SpatialComboStudy(l, CaseStudyHardware())
	if len(study) < 4 {
		t.Fatalf("only %d combos found", len(study))
	}
	for combo, rep := range study {
		if !strings.Contains(rep.Mapping, combo) {
			t.Errorf("combo %s mapping %q mismatch", combo, rep.Mapping)
		}
	}
}

func TestGranularityFacade(t *testing.T) {
	tool := New()
	space := Space{
		Vector: []int{8}, Lanes: []int{8}, Cores: []int{2, 4}, Chiplets: []int{2, 4},
		OL1PerLane: []int{144}, AL1: []int{2048}, WL1: []int{16384}, AL2: []int{65536},
	}
	m := Model{Name: "tiny", Resolution: 32, Layers: []Layer{
		{Model: "tiny", Name: "c1", HO: 32, WO: 32, CO: 32, CI: 16, R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
	}}
	res, err := tool.Granularity(context.Background(), m, space, 256, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no granularity points")
	}
	ex, err := tool.Explore(context.Background(), m, space, 256, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Swept == 0 {
		t.Error("no swept points")
	}
	if tool.ChipletAreaMM2(CaseStudyHardware()) <= 0 {
		t.Error("non-positive area")
	}
}

func TestFusionStudy(t *testing.T) {
	tool := New()
	rep, err := tool.FusionStudy(DarkNet19(224), CaseStudyHardware())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Groups <= 0 || rep.FusedEdges <= 0 {
		t.Fatalf("degenerate schedule: %+v", rep)
	}
	if rep.Fused.Total() > rep.Unfused.Total() {
		t.Errorf("fusion increased energy: %.0f > %.0f", rep.Fused.Total(), rep.Unfused.Total())
	}
	if rep.SavedDRAM <= 0 {
		t.Errorf("no DRAM saved: %d", rep.SavedDRAM)
	}
	// Fusion only moves DRAM traffic to A-L2: MAC energy is untouched.
	if rep.Fused.MAC != rep.Unfused.MAC {
		t.Error("fusion must not change MAC energy")
	}
}

func TestMobileNetV2Facade(t *testing.T) {
	m := MobileNetV2(224)
	rep, err := New().MapModel(m, CaseStudyHardware())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Energy.Total() <= 0 {
		t.Error("degenerate MobileNetV2 mapping")
	}
}

func TestCompareSimbaRejectsPartialMapping(t *testing.T) {
	// A model with an unmappable layer (1x1 plane, CO below the chiplet
	// count) must fail the comparison rather than compare unequal work.
	m := Model{Name: "partial", Resolution: 8, Layers: []Layer{
		{Model: "partial", Name: "ok", HO: 8, WO: 8, CO: 32, CI: 8,
			R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{Model: "partial", Name: "bad", HO: 1, WO: 1, CO: 2, CI: 8,
			R: 1, S: 1, StrideH: 1, StrideW: 1},
	}}
	if _, err := New().CompareSimba(m, CaseStudyHardware()); err == nil {
		t.Error("expected partial-mapping error")
	}
}

func TestParseModelReexport(t *testing.T) {
	m, err := ParseModel(strings.NewReader("model x 16 4\nconv c1 8 3 1 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "x" || len(m.Layers) != 1 {
		t.Errorf("parsed %+v", m)
	}
	if _, err := New().MapModel(m, CaseStudyHardware()); err != nil {
		t.Errorf("mapping parsed model: %v", err)
	}
}

func TestTableIISpaceFacade(t *testing.T) {
	s := TableIISpace()
	if len(s.ComputeConfigs(2048)) == 0 {
		t.Error("empty Table II space")
	}
	if DefaultProcess().Validate() != nil {
		t.Error("default process invalid")
	}
}

func TestYOLOv2Facade(t *testing.T) {
	m := YOLOv2(512)
	rep, err := New().MapModel(m, CaseStudyHardware())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Layers) < 20 || rep.Energy.Total() <= 0 {
		t.Errorf("YOLOv2 mapping degenerate: %d layers", len(rep.Layers))
	}
}
