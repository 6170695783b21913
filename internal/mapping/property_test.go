package mapping

import (
	"testing"
	"testing/quick"

	"nnbaton/internal/hardware"
	"nnbaton/internal/workload"
)

// TestShapeCoversWorkloadProperty: for any structurally valid mapping, the
// ceil-tiled hierarchy must cover every output element of the layer, and no
// derived extent may be non-positive.
func TestShapeCoversWorkloadProperty(t *testing.T) {
	hw := hardware.CaseStudy()
	checked := 0
	f := func(ho, wo, co, seed uint8) bool {
		l := workload.Layer{
			Model: "q", Name: "l",
			HO: int(ho%96) + 8, WO: int(wo%96) + 8, CO: int(co%128) + 8, CI: 32,
			R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1,
		}
		m := Mapping{
			PackageSpatial: SpatialC, PackageTemporal: Temporal(seed % 2),
			ChipletSpatial: SpatialC, ChipletCSplit: hw.Cores, ChipletPattern: Pattern{Rows: 1, Cols: 1},
			ChipletTemporal: Temporal(seed / 2 % 2),
			HOt:             min(l.HO, int(seed%13)+2), WOt: min(l.WO, int(seed%11)+2),
			COt: min((l.CO+hw.Chiplets-1)/hw.Chiplets, max(hw.Cores, int(seed%32)+8)),
			HOc: 4, WOc: 4,
			Rotate: true,
		}
		if err := m.Validate(l, hw); err != nil {
			return true // structurally invalid seeds are skipped
		}
		s := m.Shape(&l, &hw)
		for _, v := range []int{s.HOp, s.WOp, s.COp, s.C1, s.H1, s.W1, s.HOs, s.WOs, s.COs, s.C2, s.H2, s.W2} {
			if v <= 0 {
				return false
			}
		}
		// Coverage along each dimension independently.
		if s.H1*m.HOt < s.HOp || s.W1*m.WOt < s.WOp || s.C1*m.COt < s.COp {
			return false
		}
		if s.H2*m.HOc < s.HOs || s.W2*m.WOc < s.WOs || s.C2*hw.Lanes < s.COs {
			return false
		}
		if s.COp*hw.Chiplets < l.CO || s.COs*m.ChipletCSplit < m.COt {
			return false
		}
		checked++
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if checked < 10 {
		t.Errorf("only %d random mappings validated; property too weak", checked)
	}
}

// TestNestInvariants: the nest always carries exactly the six level loops
// whose trip products match the Shape positions.
func TestNestInvariants(t *testing.T) {
	hw := hardware.CaseStudy()
	l := workload.Layer{Model: "q", Name: "l", HO: 56, WO: 56, CO: 64, CI: 32,
		R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	f := func(pt, ct uint8, hot, wot, cot uint8) bool {
		m := Mapping{
			PackageSpatial: SpatialC, PackageTemporal: Temporal(pt % 2),
			ChipletSpatial: SpatialC, ChipletCSplit: hw.Cores, ChipletPattern: Pattern{Rows: 1, Cols: 1},
			ChipletTemporal: Temporal(ct % 2),
			HOt:             int(hot%14) + 1, WOt: int(wot%14) + 1, COt: int(cot%16) + 8,
			HOc: 2, WOc: 2, Rotate: true,
		}
		if err := m.Validate(l, hw); err != nil {
			return true
		}
		s := m.Shape(&l, &hw)
		nest := m.AppendNest(nil, &s)
		if len(nest) != 6 {
			return false
		}
		prodPkg, prodChip := int64(1), int64(1)
		for _, lp := range nest {
			if lp.Count <= 0 {
				return false
			}
			if lp.Level == LevelPackage {
				prodPkg *= int64(lp.Count)
			} else {
				prodChip *= int64(lp.Count)
			}
		}
		return prodPkg == s.PackagePositions() && prodChip == s.ChipletPositions()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
