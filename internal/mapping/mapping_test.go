package mapping

import (
	"strings"
	"testing"

	"nnbaton/internal/hardware"
	"nnbaton/internal/workload"
)

func testLayer() workload.Layer {
	return workload.Layer{Model: "t", Name: "conv", HO: 56, WO: 56, CO: 64, CI: 64,
		R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
}

// validMapping is a well-formed (C, C) mapping for the case-study hardware.
func validMapping() Mapping {
	return Mapping{
		PackageSpatial: SpatialC, PackageTemporal: ChannelPriority,
		ChipletSpatial: SpatialC, ChipletCSplit: 8, ChipletPattern: Pattern{1, 1},
		ChipletTemporal: PlanePriority,
		HOt:             14, WOt: 14, COt: 16, HOc: 4, WOc: 4,
		Rotate: true,
	}
}

func TestGridPatterns(t *testing.T) {
	got := GridPatterns(nil, 4)
	want := []Pattern{{1, 4}, {2, 2}, {4, 1}}
	if len(got) != len(want) {
		t.Fatalf("GridPatterns(nil, 4) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("GridPatterns(nil, 4)[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if n := len(GridPatterns(nil, 8)); n != 4 {
		t.Errorf("GridPatterns(nil, 8) has %d entries, want 4", n)
	}
}

func TestShapeCType(t *testing.T) {
	l, hw := testLayer(), hardware.CaseStudy()
	m := validMapping()
	if err := m.Validate(l, hw); err != nil {
		t.Fatal(err)
	}
	s := m.Shape(&l, &hw)
	// Package C split: 64 channels over 4 chiplets -> 16 per chiplet.
	if s.COp != 16 || s.HOp != 56 || s.WOp != 56 {
		t.Errorf("chiplet region = %dx%dx%d", s.HOp, s.WOp, s.COp)
	}
	// Package temporal: 56/14=4 per planar dim, 16/16=1 channel step.
	if s.C1 != 1 || s.H1 != 4 || s.W1 != 4 {
		t.Errorf("package loops = C1=%d H1=%d W1=%d", s.C1, s.H1, s.W1)
	}
	// Chiplet C split: 16 channels over 8 cores -> 2 per core; 2 < 8 lanes
	// so C2 = 1 with lane under-utilization.
	if s.COs != 2 || s.HOs != 14 || s.WOs != 14 {
		t.Errorf("core region = %dx%dx%d", s.HOs, s.WOs, s.COs)
	}
	if s.C2 != 1 || s.H2 != 4 || s.W2 != 4 {
		t.Errorf("chiplet loops = C2=%d H2=%d W2=%d", s.C2, s.H2, s.W2)
	}
	if s.PlanarShareCores != 8 || s.WeightShareCores != 1 {
		t.Errorf("sharing = planar %d weights %d", s.PlanarShareCores, s.WeightShareCores)
	}
	if s.PackagePositions() != 16 || s.ChipletPositions() != 16 {
		t.Errorf("positions = %d/%d", s.PackagePositions(), s.ChipletPositions())
	}
}

func TestShapePType(t *testing.T) {
	l, hw := testLayer(), hardware.CaseStudy()
	m := Mapping{
		PackageSpatial: SpatialP, PackagePattern: Pattern{2, 2}, PackageTemporal: PlanePriority,
		ChipletSpatial: SpatialP, ChipletCSplit: 1, ChipletPattern: Pattern{2, 4},
		ChipletTemporal: ChannelPriority,
		HOt:             28, WOt: 28, COt: 64, HOc: 4, WOc: 4,
		Rotate: true,
	}
	if err := m.Validate(l, hw); err != nil {
		t.Fatal(err)
	}
	s := m.Shape(&l, &hw)
	if s.HOp != 28 || s.WOp != 28 || s.COp != 64 {
		t.Errorf("chiplet region = %dx%dx%d", s.HOp, s.WOp, s.COp)
	}
	if s.HOs != 14 || s.WOs != 7 || s.COs != 64 {
		t.Errorf("core region = %dx%dx%d", s.HOs, s.WOs, s.COs)
	}
	if s.C2 != 8 || s.H2 != 4 || s.W2 != 2 {
		t.Errorf("chiplet loops = C2=%d H2=%d W2=%d", s.C2, s.H2, s.W2)
	}
	if s.PlanarShareCores != 1 || s.WeightShareCores != 8 {
		t.Errorf("sharing = planar %d weights %d", s.PlanarShareCores, s.WeightShareCores)
	}
}

func TestShapeHybrid(t *testing.T) {
	l, hw := testLayer(), hardware.CaseStudy()
	m := Mapping{
		PackageSpatial: SpatialC, PackageTemporal: ChannelPriority,
		ChipletSpatial: SpatialH, ChipletCSplit: 2, ChipletPattern: Pattern{2, 2},
		ChipletTemporal: PlanePriority,
		HOt:             28, WOt: 28, COt: 16, HOc: 4, WOc: 4,
	}
	if err := m.Validate(l, hw); err != nil {
		t.Fatal(err)
	}
	s := m.Shape(&l, &hw)
	if s.COs != 8 || s.HOs != 14 || s.WOs != 14 {
		t.Errorf("core region = %dx%dx%d", s.HOs, s.WOs, s.COs)
	}
	if s.PlanarShareCores != 2 || s.WeightShareCores != 4 {
		t.Errorf("sharing = planar %d weights %d", s.PlanarShareCores, s.WeightShareCores)
	}
}

func TestValidateRejections(t *testing.T) {
	l, hw := testLayer(), hardware.CaseStudy()
	cases := []struct {
		name   string
		mutate func(*Mapping)
		msg    string
	}{
		{"bad package pattern", func(m *Mapping) { m.PackageSpatial = SpatialP; m.PackagePattern = Pattern{3, 1} }, "pattern"},
		{"hybrid at package", func(m *Mapping) { m.PackageSpatial = SpatialH }, "package spatial"},
		{"csplit mismatch C", func(m *Mapping) { m.ChipletCSplit = 4 }, "C-type chiplet"},
		{"zero tile", func(m *Mapping) { m.HOt = 0 }, "non-positive tile"},
		{"tile exceeds region", func(m *Mapping) { m.COt = 999 }, "exceeds chiplet region"},
		{"core tile exceeds", func(m *Mapping) { m.HOc = 15 }, "exceeds core region"},
		{"rotation on 1 chiplet", func(m *Mapping) {}, "rotation"},
		{"psum overflow", func(m *Mapping) { m.HOc = 14; m.WOc = 14 }, "O-L1"},
	}
	for _, tc := range cases {
		m := validMapping()
		h := hw
		if tc.name == "rotation on 1 chiplet" {
			h.Chiplets = 1
			m.COt = 8
		}
		if tc.name == "psum overflow" {
			// enlarge core region so the tile bound passes first
			m.HOt, m.WOt = 14, 14
		}
		tc.mutate(&m)
		err := m.Validate(l, h)
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.msg)
		}
	}
}

func TestValidateHybridArity(t *testing.T) {
	l, hw := testLayer(), hardware.CaseStudy()
	m := validMapping()
	m.ChipletSpatial = SpatialH
	m.ChipletCSplit = 3 // 3*? != 8
	m.ChipletPattern = Pattern{1, 2}
	if err := m.Validate(l, hw); err == nil {
		t.Error("expected arity error for H split 3x(1x2) on 8 cores")
	}
}

func TestNestOrders(t *testing.T) {
	l, hw := testLayer(), hardware.CaseStudy()
	m := validMapping() // package chan-prio, chiplet plane-prio
	s := m.Shape(&l, &hw)
	nest := m.AppendNest(nil, &s)
	if len(nest) != 6 {
		t.Fatalf("nest has %d loops", len(nest))
	}
	// Package channel-priority: H1, W1, C1 (C inner).
	if nest[0].Dim != DimH || nest[1].Dim != DimW || nest[2].Dim != DimC {
		t.Errorf("package order = %v %v %v", nest[0], nest[1], nest[2])
	}
	// Chiplet plane-priority: C2, H2, W2 (plane inner).
	if nest[3].Dim != DimC || nest[4].Dim != DimH || nest[5].Dim != DimW {
		t.Errorf("chiplet order = %v %v %v", nest[3], nest[4], nest[5])
	}
	for i, lp := range nest {
		wantLevel := LevelPackage
		if i >= 3 {
			wantLevel = LevelChiplet
		}
		if lp.Level != wantLevel {
			t.Errorf("loop %d level = %v", i, lp.Level)
		}
	}
	if got := len(m.AppendChipletNest(nil, &s)); got != 3 {
		t.Errorf("AppendChipletNest gives %d loops", got)
	}
	if got := len(m.AppendPackageNest(nil, &s)); got != 3 {
		t.Errorf("AppendPackageNest gives %d loops", got)
	}
}

func TestLoopCountsProduct(t *testing.T) {
	// The nest trip-count product times the spatial fan-out and tile volume
	// must cover the whole layer (with ceiling slack).
	l, hw := testLayer(), hardware.CaseStudy()
	m := validMapping()
	s := m.Shape(&l, &hw)
	covered := s.PackagePositions() * s.ChipletPositions() *
		int64(m.HOc) * int64(m.WOc) * int64(hw.Lanes) *
		int64(hw.Chiplets) * int64(hw.Cores)
	total := int64(l.HO) * int64(l.WO) * int64(l.CO)
	if covered < total {
		t.Errorf("mapping covers %d outputs, layer has %d", covered, total)
	}
}

func TestStringers(t *testing.T) {
	if SpatialC.String() != "C" || SpatialP.String() != "P" || SpatialH.String() != "H" {
		t.Error("Spatial names wrong")
	}
	if ChannelPriority.String() != "chan-prio" || PlanePriority.String() != "plane-prio" {
		t.Error("Temporal names wrong")
	}
	if (Pattern{2, 4}).String() != "2x4" {
		t.Error("Pattern name wrong")
	}
	if !strings.Contains(validMapping().String(), "(C,C)") {
		t.Errorf("Mapping string = %q", validMapping().String())
	}
	lp := Loop{DimC, 4, LevelChiplet}
	if lp.String() != "C2=4" {
		t.Errorf("Loop string = %q", lp.String())
	}
}
