package functional

import (
	"testing"
	"testing/quick"

	"nnbaton/internal/hardware"
	"nnbaton/internal/mapper"
	"nnbaton/internal/mapping"
	"nnbaton/internal/workload"
)

var cm = hardware.MustCostModel()

func funcLayer() workload.Layer {
	return workload.Layer{Model: "f", Name: "conv", HO: 20, WO: 20, CO: 64, CI: 16,
		R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
}

func TestReferenceHandComputed(t *testing.T) {
	// 1x1 output, 1 channel, 2x2 kernel: acc = Σ in*w computed by hand.
	l := workload.Layer{Model: "f", Name: "t", HO: 1, WO: 1, CO: 1, CI: 1,
		R: 2, S: 2, StrideH: 1, StrideW: 1}
	in, w := NewInput(l), NewWeights(l)
	in[0][0][0], in[0][0][1], in[0][1][0], in[0][1][1] = 1, 2, 3, 4
	w[0][0][0][0], w[0][0][0][1], w[0][0][1][0], w[0][0][1][1] = 5, 6, 7, 8
	out := Reference(l, in, w)
	if want := int32(1*5 + 2*6 + 3*7 + 4*8); out[0][0][0] != want {
		t.Fatalf("reference = %d, want %d", out[0][0][0], want)
	}
}

func TestReferenceGrouped(t *testing.T) {
	// Depthwise 2-channel layer: each output channel sees only its own
	// input channel.
	l := workload.Layer{Model: "f", Name: "dw", HO: 1, WO: 1, CO: 2, CI: 2,
		R: 1, S: 1, StrideH: 1, StrideW: 1, Groups: 2}
	in, w := NewInput(l), NewWeights(l)
	in[0][0][0], in[1][0][0] = 3, 5
	w[0][0][0][0], w[1][0][0][0] = 7, 11
	out := Reference(l, in, w)
	if out[0][0][0] != 21 || out[1][0][0] != 55 {
		t.Fatalf("grouped reference = %d/%d, want 21/55", out[0][0][0], out[1][0][0])
	}
}

func execMapping() mapping.Mapping {
	return mapping.Mapping{
		PackageSpatial: mapping.SpatialC, PackageTemporal: mapping.ChannelPriority,
		ChipletSpatial: mapping.SpatialC, ChipletCSplit: 8, ChipletPattern: mapping.Pattern{Rows: 1, Cols: 1},
		ChipletTemporal: mapping.PlanePriority,
		HOt:             10, WOt: 10, COt: 8, HOc: 4, WOc: 4, Rotate: true,
	}
}

// TestExecuteMappedMatchesReference runs C- and P-type package splits with
// C-, P- and H-type chiplet splits under all four (package, chiplet)
// temporal orders: every output element is computed exactly once and
// matches the reference. The P-type tiles do not divide their regions.
func TestExecuteMappedMatchesReference(t *testing.T) {
	l := funcLayer()
	hw := hardware.CaseStudy()
	in, w := Fill(l, 7)
	ref := Reference(l, in, w)
	chiplet := []struct {
		s     mapping.Spatial
		split int
		p     mapping.Pattern
	}{
		{mapping.SpatialC, 8, mapping.Pattern{Rows: 1, Cols: 1}},
		{mapping.SpatialP, 1, mapping.Pattern{Rows: 2, Cols: 4}},
		{mapping.SpatialH, 2, mapping.Pattern{Rows: 2, Cols: 2}},
	}
	orders := []mapping.Temporal{mapping.ChannelPriority, mapping.PlanePriority}
	for _, pkg := range []mapping.Spatial{mapping.SpatialC, mapping.SpatialP} {
		for _, cs := range chiplet {
			for _, pt := range orders {
				for _, ct := range orders {
					m := execMapping()
					m.HOc, m.WOc = 3, 2
					if pkg == mapping.SpatialP {
						m.PackageSpatial, m.PackagePattern = pkg, mapping.Pattern{Rows: 2, Cols: 2}
						m.HOt, m.WOt, m.COt = 7, 5, 24
					}
					m.ChipletSpatial, m.ChipletCSplit, m.ChipletPattern = cs.s, cs.split, cs.p
					m.PackageTemporal, m.ChipletTemporal = pt, ct
					got, err := ExecuteMapped(l, hw, m, in, w)
					if err != nil {
						t.Fatalf("%v: %v", m, err)
					}
					if err := Equal(ref, got); err != nil {
						t.Fatalf("%v: %v", m, err)
					}
				}
			}
		}
	}
}

func TestExecuteMappedPTypeHybrid(t *testing.T) {
	l := funcLayer()
	hw := hardware.CaseStudy()
	m := mapping.Mapping{
		PackageSpatial: mapping.SpatialP, PackagePattern: mapping.Pattern{Rows: 2, Cols: 2},
		PackageTemporal: mapping.PlanePriority,
		ChipletSpatial:  mapping.SpatialH, ChipletCSplit: 2, ChipletPattern: mapping.Pattern{Rows: 2, Cols: 2},
		ChipletTemporal: mapping.ChannelPriority,
		HOt:             7, WOt: 5, COt: 64, HOc: 3, WOc: 2, Rotate: true,
	}
	in, w := Fill(l, 13)
	ref := Reference(l, in, w)
	got, err := ExecuteMapped(l, hw, m, in, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := Equal(ref, got); err != nil {
		t.Fatal(err)
	}
}

// Property: for random odd layer shapes and the mapper's own optimal
// mapping, the mapped execution is bit-exact vs the reference — the search
// never produces a mapping that miscovers the workload.
func TestMapperOptimaAreFunctionallyCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("mapping search in -short mode")
	}
	hw := hardware.CaseStudy()
	f := func(hoS, coS, ciS, kS uint8) bool {
		l := workload.Layer{
			Model: "q", Name: "conv",
			HO: int(hoS%23) + 6, WO: int(hoS%19) + 6,
			CO: int(coS%40) + 8, CI: int(ciS%24) + 4,
			R: []int{1, 3, 5}[kS%3], S: []int{1, 3, 5}[kS%3],
			StrideH: int(kS/3%2) + 1, StrideW: int(kS/3%2) + 1,
			PadH: 1, PadW: 1,
		}
		opt, err := mapper.Search(l, hw, cm, mapper.Config{})
		if err != nil {
			return true // genuinely unmappable shapes are fine
		}
		in, w := Fill(l, int64(hoS)<<8|int64(coS))
		ref := Reference(l, in, w)
		got, err := ExecuteMapped(l, hw, opt.Analysis.Map, in, w)
		if err != nil {
			t.Logf("layer %v mapping %v: %v", l, opt.Analysis.Map, err)
			return false
		}
		return Equal(ref, got) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestExecuteMappedRejectsInvalid(t *testing.T) {
	l := funcLayer()
	hw := hardware.CaseStudy()
	m := execMapping()
	m.HOt = 0
	in, w := Fill(l, 1)
	if _, err := ExecuteMapped(l, hw, m, in, w); err == nil {
		t.Error("expected validation error")
	}
}
