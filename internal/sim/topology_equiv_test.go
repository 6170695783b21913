// Zoo-wide ring equivalence: the generic graph engine, instantiated on the
// ring fabric, must drive the pipeline simulator to byte-identical results
// against the closed-form *Ring — over real searched mappings of real zoo
// layers, healthy and under fault masks. Lives in an external test package
// because the mapper (which produces the mappings) imports sim.
package sim_test

import (
	"testing"

	"nnbaton/internal/c3p"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapper"
	"nnbaton/internal/noc"
	"nnbaton/internal/sim"
	"nnbaton/internal/workload"
)

// TestSimZooRingGenericEquivalence searches every distinct ResNet-50 layer
// shape on the case-study package (healthy, and with one and two dead
// positions), then replays each retained candidate's traffic through
// SimulateTrafficOn twice — once on the closed-form ring, once on the
// generic engine's ring — and requires the full Result structs to match
// exactly. This pins the ISSUE acceptance "ring result-identical zoo-wide"
// at the simulator boundary, where every Topology method that can influence
// cycles is exercised with production inputs.
func TestSimZooRingGenericEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full zoo search")
	}
	cm := hardware.MustCostModel()
	scenarios := []struct {
		chiplets int
		mask     hardware.FaultMask
	}{
		{4, hardware.FaultMask{}},                          // healthy case study
		{3, hardware.FaultMask{Chiplets: 4, Dead: 1 << 2}}, // one dead relay
		{2, hardware.FaultMask{Chiplets: 4, Dead: 0b0101}}, // alternating survivors
	}
	model := workload.ResNet50(64)
	seen := map[string]bool{}
	compared := 0
	for _, sc := range scenarios {
		hw := hardware.CaseStudy()
		hw.Chiplets = sc.chiplets
		closed, err := noc.NewRingUnder(sc.chiplets, sc.mask)
		if err != nil {
			t.Fatal(err)
		}
		generic, err := noc.NewGenericRingUnder(sc.chiplets, sc.mask)
		if err != nil {
			t.Fatal(err)
		}
		xbar, err := noc.NewCrossbar(sc.chiplets)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range model.Layers {
			key := sc.mask.String() + "|" + l.String()
			if seen[key] {
				continue
			}
			seen[key] = true
			opts := mapper.SearchAll(l, hw, cm, mapper.Config{KeepTop: 3, Fault: sc.mask})
			for _, opt := range opts {
				a, err := c3p.Analyze(l, hw, opt.Analysis.Map)
				if err != nil {
					t.Fatal(err)
				}
				num, den := closed.D2DScale()
				tr := a.Traffic().ScaleD2D(num, den)
				rClosed, err := sim.SimulateTrafficOn(closed, xbar, a, tr)
				if err != nil {
					t.Fatal(err)
				}
				rGeneric, err := sim.SimulateTrafficOn(generic, xbar, a, tr)
				if err != nil {
					t.Fatal(err)
				}
				if rClosed != rGeneric {
					t.Errorf("%s %s %s: closed %+v != generic %+v",
						sc.mask, l.Name, opt.Analysis.Map, rClosed, rGeneric)
				}
				compared++
			}
		}
	}
	if compared < 20 {
		t.Fatalf("only %d candidate mappings compared — the zoo sweep collapsed", compared)
	}
}
