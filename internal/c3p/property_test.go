package c3p

import (
	"testing"
	"testing/quick"

	"nnbaton/internal/hardware"
	"nnbaton/internal/mapping"
	"nnbaton/internal/workload"
)

// randomMapping derives a structurally valid mapping from random seeds; it
// returns ok=false when the derived mapping fails validation (which the
// property then skips).
func randomMapping(l workload.Layer, hw hardware.Config, seed [6]uint8) (mapping.Mapping, bool) {
	m := mapping.Mapping{Rotate: hw.Chiplets > 1}
	if seed[0]%2 == 0 {
		m.PackageSpatial = mapping.SpatialC
	} else {
		m.PackageSpatial = mapping.SpatialP
		pats := mapping.GridPatterns(nil, hw.Chiplets)
		m.PackagePattern = pats[int(seed[0]/2)%len(pats)]
	}
	switch seed[1] % 3 {
	case 0:
		m.ChipletSpatial, m.ChipletCSplit, m.ChipletPattern = mapping.SpatialC, hw.Cores, mapping.Pattern{Rows: 1, Cols: 1}
	case 1:
		pats := mapping.GridPatterns(nil, hw.Cores)
		m.ChipletSpatial, m.ChipletCSplit, m.ChipletPattern = mapping.SpatialP, 1, pats[int(seed[1]/3)%len(pats)]
	default:
		m.ChipletSpatial, m.ChipletCSplit, m.ChipletPattern = mapping.SpatialH, 2, mapping.Pattern{Rows: 2, Cols: hw.Cores / 4}
	}
	m.PackageTemporal = mapping.Temporal(seed[2] % 2)
	m.ChipletTemporal = mapping.Temporal(seed[3] % 2)
	tiles := []int{4, 7, 8, 14, 28, 56}
	m.HOt = tiles[int(seed[4])%len(tiles)]
	m.WOt = tiles[int(seed[4]/8)%len(tiles)]
	m.COt = []int{8, 16, 32, 64}[int(seed[5])%4]
	m.HOc, m.WOc = 4, 4
	if err := m.Validate(l, hw); err != nil {
		return mapping.Mapping{}, false
	}
	return m, true
}

// Property: every valid random mapping yields conservative traffic — at
// least one DRAM read of every weight and input byte, exact MACs and output
// writes, and monotone improvement in every buffer dimension.
func TestAnalyzeProperties(t *testing.T) {
	l := workload.Layer{Model: "q", Name: "conv", HO: 56, WO: 56, CO: 64, CI: 64,
		R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	hw := hardware.CaseStudy()
	checked := 0
	f := func(seed [6]uint8) bool {
		m, ok := randomMapping(l, hw, seed)
		if !ok {
			return true
		}
		a, err := Analyze(l, hw, m)
		if err != nil {
			return false
		}
		tr := a.Traffic()
		if tr.MACs != l.MACs() || tr.DRAMOutWrites != l.OutputBytes() {
			return false
		}
		if tr.DRAMActReads < l.InputBytes() || tr.DRAMWtReads < l.WeightBytes() {
			return false
		}
		// Buffer monotonicity, one dimension at a time.
		base := a.TrafficAt(hw.AL1Bytes, hw.WL1Bytes, hw.AL2Bytes)
		bigA := a.TrafficAt(hw.AL1Bytes*16, hw.WL1Bytes, hw.AL2Bytes)
		bigW := a.TrafficAt(hw.AL1Bytes, hw.WL1Bytes*16, hw.AL2Bytes)
		bigL2 := a.TrafficAt(hw.AL1Bytes, hw.WL1Bytes, hw.AL2Bytes*16)
		if bigA.AL1Writes > base.AL1Writes {
			return false
		}
		if bigW.DRAMWtReads > base.DRAMWtReads {
			return false
		}
		if bigL2.DRAMActReads > base.DRAMActReads {
			return false
		}
		checked++
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if checked == 0 {
		t.Error("no random mapping validated; property vacuous")
	}
}

// Property: rotation never increases the DRAM+D2D energy under Table I
// prices for any valid mapping pair.
func TestRotationNeverHurtsProperty(t *testing.T) {
	l := workload.Layer{Model: "q", Name: "conv", HO: 56, WO: 56, CO: 64, CI: 64,
		R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	hw := hardware.CaseStudy()
	checked := 0
	f := func(seed [6]uint8) bool {
		m, ok := randomMapping(l, hw, seed)
		if !ok {
			return true
		}
		aRot, err := Analyze(l, hw, m)
		if err != nil {
			return false
		}
		m.Rotate = false
		aDup, err := Analyze(l, hw, m)
		if err != nil {
			return false
		}
		price := func(tr Traffic) float64 {
			return float64(tr.DRAMBytes())*hardware.DRAMPJPerBit + float64(tr.D2DBytes())*hardware.D2DPJPerBit
		}
		checked++
		return price(aRot.Traffic()) <= price(aDup.Traffic())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if checked == 0 {
		t.Error("no random mapping validated; property vacuous")
	}
}
