package hardware

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFitRecoverLine(t *testing.T) {
	pts := []MemPoint{{1024, 0, 1}, {2048, 0, 2}, {4096, 0, 4}}
	lin, err := Fit(pts, func(p MemPoint) float64 { return p.EnergyPJ })
	if err != nil {
		t.Fatal(err)
	}
	want := Linear{Slope: 1.0 / 1024, Intercept: 0}
	if math.Abs(lin.Slope-want.Slope) > 1e-12 || math.Abs(lin.Intercept) > 1e-9 {
		t.Errorf("Fit = %+v, want %+v", lin, want)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit([]MemPoint{{1024, 0, 1}}, func(p MemPoint) float64 { return p.EnergyPJ }); err == nil {
		t.Error("expected error for single point")
	}
	same := []MemPoint{{1024, 0, 1}, {1024, 0, 2}}
	if _, err := Fit(same, func(p MemPoint) float64 { return p.EnergyPJ }); err == nil {
		t.Error("expected error for degenerate sizes")
	}
}

func TestFitExactOnPerfectLine(t *testing.T) {
	f := func(slope, icept uint16) bool {
		s := float64(slope)/1e4 + 1e-6
		ic := float64(icept) / 1e3
		pts := make([]MemPoint, 0, 5)
		for _, sz := range []int{1024, 3000, 8192, 20000, 65536} {
			pts = append(pts, MemPoint{SizeBytes: sz, EnergyPJ: ic + s*float64(sz)})
		}
		lin, err := Fit(pts, func(p MemPoint) float64 { return p.EnergyPJ })
		if err != nil {
			return false
		}
		return math.Abs(lin.Slope-s) < 1e-9*(1+s) && math.Abs(lin.Intercept-ic) < 1e-6*(1+ic)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCostModelAnchors(t *testing.T) {
	m := MustCostModel()
	// The fitted model must reproduce Table I within the library jitter.
	if got := m.SRAMPJPerBit(L1RefBytes); math.Abs(got-L1RefPJPerBit) > 0.03 {
		t.Errorf("1KB L1 energy = %.4f pJ/bit, want ~%.2f", got, L1RefPJPerBit)
	}
	if got := m.SRAMPJPerBit(L2RefBytes); math.Abs(got-L2RefPJPerBit) > 0.05 {
		t.Errorf("32KB L2 energy = %.4f pJ/bit, want ~%.2f", got, L2RefPJPerBit)
	}
	if got := m.RFRMWPJ(RFRefBytes); math.Abs(got-RFRefPJPerRMW) > 0.01 {
		t.Errorf("1.5KB RF RMW = %.4f pJ, want ~%.3f", got, RFRefPJPerRMW)
	}
}

func TestTableIOrdering(t *testing.T) {
	// Table I relative costs must be preserved:
	// DRAM > D2D > L2 > L1 > RF > MAC.
	m := MustCostModel()
	l2 := m.SRAMPJPerBit(L2RefBytes)
	l1 := m.SRAMPJPerBit(L1RefBytes)
	rfPerBit := m.RFRMWPJ(RFRefBytes) / 24 * 8 // per-bit equivalent of a 24-bit RMW
	seq := []float64{DRAMPJPerBit, D2DPJPerBit, l2, l1, rfPerBit, MACPJPerOp}
	for i := 1; i < len(seq); i++ {
		if seq[i] >= seq[i-1] {
			t.Errorf("cost ordering violated at position %d: %v", i, seq)
		}
	}
	// And the headline ratio: DRAM is ~364x a MAC.
	if r := DRAMPJPerBit / MACPJPerOp; math.Abs(r-364.58) > 0.1 {
		t.Errorf("DRAM/MAC ratio = %.2f, want 364.58", r)
	}
}

func TestSRAMMonotonicity(t *testing.T) {
	m := MustCostModel()
	prevE, prevA := 0.0, 0.0
	for _, size := range []int{512, 1024, 4096, 32768, 262144} {
		e, a := m.SRAMPJPerBit(size), m.SRAMAreaMM2(size)
		if e <= prevE || a <= prevA {
			t.Errorf("size %d: energy %.4f area %.4f not increasing", size, e, a)
		}
		prevE, prevA = e, a
	}
}

func TestConfigDerived(t *testing.T) {
	c := CaseStudy()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.MACsPerCore() != 64 || c.MACsPerChiplet() != 512 || c.TotalMACs() != 2048 {
		t.Errorf("case study MACs: %d/%d/%d", c.MACsPerCore(), c.MACsPerChiplet(), c.TotalMACs())
	}
	if c.Tuple() != "4-8-8-8" {
		t.Errorf("Tuple = %q", c.Tuple())
	}
}

func TestConfigValidate(t *testing.T) {
	good := CaseStudy()
	for i, mutate := range []func(*Config){
		func(c *Config) { c.Chiplets = 0 },
		func(c *Config) { c.Cores = -1 },
		func(c *Config) { c.Lanes = 0 },
		func(c *Config) { c.Vector = 0 },
		func(c *Config) { c.OL1Bytes = 0 },
		func(c *Config) { c.AL1Bytes = 0 },
		func(c *Config) { c.WL1Bytes = -5 },
		func(c *Config) { c.AL2Bytes = 0 },
		func(c *Config) { c.OL2Bytes = -1 },
	} {
		c := good
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted invalid config", i)
		}
	}
}

func TestProportionalMemoryMatchesCaseStudy(t *testing.T) {
	c := Config{Chiplets: 4, Cores: 8, Lanes: 8, Vector: 8}.
		WithProportionalMemory(DefaultProportion())
	want := CaseStudy()
	if c != want {
		t.Errorf("proportional memory = %+v, want %+v", c, want)
	}
}

func TestChipletArea(t *testing.T) {
	m := MustCostModel()
	cs := m.ChipletAreaMM2(CaseStudy())
	if cs < 0.6 || cs > 2.0 {
		t.Errorf("case-study chiplet area = %.2f mm², expected within [0.6, 2.0]", cs)
	}
	// §VI-B1: with 2048 MACs and proportional buffers, no 1-chiplet design
	// fits a 2 mm² area budget, but 4-chiplet designs do.
	one := Config{Chiplets: 1, Cores: 16, Lanes: 16, Vector: 8}.WithProportionalMemory(DefaultProportion())
	four := Config{Chiplets: 4, Cores: 4, Lanes: 16, Vector: 8}.WithProportionalMemory(DefaultProportion())
	if a := m.ChipletAreaMM2(one); a <= 2.0 {
		t.Errorf("1-chiplet 2048-MAC area = %.2f mm², expected > 2", a)
	}
	if a := m.ChipletAreaMM2(four); a > 2.0 {
		t.Errorf("4-chiplet 2048-MAC area = %.2f mm², expected <= 2", a)
	}
}

func TestSeconds(t *testing.T) {
	if got := Seconds(500e6); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("Seconds(500e6) = %v, want 1.0", got)
	}
}
