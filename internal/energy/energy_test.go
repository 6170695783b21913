package energy

import (
	"math"
	"math/rand"
	"testing"

	"nnbaton/internal/c3p"
	"nnbaton/internal/hardware"
)

func TestFromTrafficPricing(t *testing.T) {
	cm := hardware.MustCostModel()
	hw := hardware.CaseStudy()
	tr := c3p.Traffic{
		DRAMActReads: 100, DRAMWtReads: 50, DRAMOutWrites: 25,
		D2DActs: 40, D2DWts: 10,
		AL2Writes: 30, AL2Reads: 70,
		AL1Writes: 20, AL1Reads: 80,
		WL1Writes: 5, WL1Reads: 15,
		OL2Writes: 9, OL2Reads: 9,
		OL1RMW: 1000, MACs: 10000,
	}
	b := FromTraffic(tr, hw, cm)
	if want := 175.0 * 8 * hardware.DRAMPJPerBit; math.Abs(b.DRAM-want) > 1e-9 {
		t.Errorf("DRAM = %f, want %f", b.DRAM, want)
	}
	// Explicit ring traffic plus the crossbar-crossing share of DRAM bytes
	// ((N_P−1)/N_P = 3/4 on the 4-chiplet case study).
	if want := (50.0 + 175.0*0.75) * 8 * hardware.D2DPJPerBit; math.Abs(b.D2D-want) > 1e-9 {
		t.Errorf("D2D = %f, want %f", b.D2D, want)
	}
	if want := 100.0 * 8 * cm.SRAMPJPerBit(hw.AL2Bytes); math.Abs(b.AL2-want) > 1e-9 {
		t.Errorf("AL2 = %f, want %f", b.AL2, want)
	}
	if want := 1000 * cm.RFRMWPJ(hw.OL1Bytes); math.Abs(b.OL1-want) > 1e-9 {
		t.Errorf("OL1 = %f, want %f", b.OL1, want)
	}
	if want := 10000 * hardware.MACPJPerOp; math.Abs(b.MAC-want) > 1e-9 {
		t.Errorf("MAC = %f, want %f", b.MAC, want)
	}
	sum := 0.0
	for _, c := range b.Components() {
		sum += c.PJ
	}
	if math.Abs(sum-b.Total()) > 1e-9 {
		t.Errorf("components sum %f != total %f", sum, b.Total())
	}
}

func TestSimbaPsumPricing(t *testing.T) {
	cm := hardware.MustCostModel()
	hw := hardware.CaseStudy()
	tr := c3p.Traffic{D2DPsums: 100, L2Psum: 200}
	b := FromTraffic(tr, hw, cm)
	if b.D2D <= 0 || b.AL2 <= 0 {
		t.Errorf("psum traffic must be priced: D2D=%f AL2=%f", b.D2D, b.AL2)
	}
}

func TestOL2FallsBackToAL2Size(t *testing.T) {
	cm := hardware.MustCostModel()
	hw := hardware.CaseStudy()
	hw.OL2Bytes = 0
	tr := c3p.Traffic{OL2Writes: 100, OL2Reads: 100}
	b := FromTraffic(tr, hw, cm)
	want := 200.0 * 8 * cm.SRAMPJPerBit(hw.AL2Bytes)
	if math.Abs(b.OL2-want) > 1e-9 {
		t.Errorf("OL2 = %f, want %f", b.OL2, want)
	}
}

func TestAddScaleEDP(t *testing.T) {
	a := Breakdown{DRAM: 1, D2D: 2, AL2: 3, AL1: 4, WL1: 5, OL1: 6, OL2: 7, MAC: 8}
	b := a.Add(a)
	if b.Total() != 2*a.Total() {
		t.Errorf("Add total = %f", b.Total())
	}
	c := a.Scale(3)
	if c.Total() != 3*a.Total() || c.WL1 != 15 {
		t.Errorf("Scale = %+v", c)
	}
	if a.String() == "" {
		t.Error("empty String")
	}
}

// referencePrice is the pricing formula as the cost model states it, with
// every rate derived per call: the oracle the rate card is held to.
func referencePrice(t *c3p.Traffic, hw *hardware.Config, cm *hardware.CostModel) Breakdown {
	bits := func(bytes int64) float64 { return float64(bytes) * 8 }
	ol2Size := hw.OL2Bytes
	if ol2Size <= 0 {
		ol2Size = hw.AL2Bytes
	}
	crossing := 0.0
	if hw.Chiplets > 1 {
		frac := float64(hw.Chiplets-1) / float64(hw.Chiplets)
		crossing = bits(t.DRAMBytes()) * frac * hardware.D2DPJPerBit
	}
	return Breakdown{
		DRAM: bits(t.DRAMBytes()) * hardware.DRAMPJPerBit,
		D2D:  bits(t.D2DBytes())*hardware.D2DPJPerBit + crossing,
		AL2:  bits(t.AL2Writes+t.AL2Reads+t.L2Psum) * cm.SRAMPJPerBit(hw.AL2Bytes),
		AL1:  bits(t.AL1Writes+t.AL1Reads) * cm.SRAMPJPerBit(hw.AL1Bytes),
		WL1:  bits(t.WL1Writes+t.WL1Reads) * cm.SRAMPJPerBit(hw.WL1Bytes),
		OL1:  float64(t.OL1RMW) * cm.RFRMWPJ(hw.OL1Bytes),
		OL2:  bits(t.OL2Writes+t.OL2Reads) * cm.SRAMPJPerBit(ol2Size),
		MAC:  float64(t.MACs) * hardware.MACPJPerOp,
	}
}

// TestCardMatchesPrice holds the rate card bit for bit to the per-call
// formula: Card.Price equals Price and the reference, Card.Total equals
// Price(...).Total(), and a D2D-scaled card equals pricing the ScaleD2D'd
// record. Inputs are random traffic records on random hardware, single-
// chiplet packages (no crossing share) and configurations without an O-L2
// size (which prices O-L2 at the A-L2 rate) included.
func TestCardMatchesPrice(t *testing.T) {
	cm := hardware.MustCostModel()
	rng := rand.New(rand.NewSource(23))
	n := func(max int64) int64 {
		if rng.Intn(6) == 0 {
			return 0
		}
		return rng.Int63n(max)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	singles, noOL2 := 0, 0
	for i := 0; i < 20000; i++ {
		hw := hardware.Config{
			Chiplets: []int{1, 2, 3, 4, 8, 16}[rng.Intn(6)],
			Cores:    1 << rng.Intn(5), Lanes: 8, Vector: 8,
			OL1Bytes: 64 + rng.Intn(4096), AL1Bytes: 64 + rng.Intn(8192),
			WL1Bytes: 256 + rng.Intn(64<<10), AL2Bytes: 1024 + rng.Intn(1<<20),
		}
		if rng.Intn(3) > 0 {
			hw.OL2Bytes = 1024 + rng.Intn(512<<10)
		}
		if hw.Chiplets == 1 {
			singles++
		}
		if hw.OL2Bytes == 0 {
			noOL2++
		}
		tr := c3p.Traffic{
			DRAMActReads: n(1 << 30), DRAMWtReads: n(1 << 30), DRAMOutWrites: n(1 << 30),
			D2DActs: n(1 << 28), D2DWts: n(1 << 28), D2DPsums: n(1 << 26), D2DOutput: n(1 << 26),
			AL2Writes: n(1 << 32), AL2Reads: n(1 << 32), AL1Writes: n(1 << 34), AL1Reads: n(1 << 34),
			WL1Writes: n(1 << 32), WL1Reads: n(1 << 34), OL2Writes: n(1 << 30), OL2Reads: n(1 << 30),
			L2Psum: n(1 << 24), OL1RMW: n(1 << 36), MACs: n(1 << 40),
		}
		card := NewCard(&hw, cm)
		want := referencePrice(&tr, &hw, cm)
		if got := card.Price(&tr); got != want || Price(&tr, &hw, cm) != want {
			t.Fatalf("%s: Card.Price = %+v, Price = %+v, reference %+v", hw.Tuple(), got, Price(&tr, &hw, cm), want)
		}
		if got := card.Total(&tr); !same(got, Price(&tr, &hw, cm).Total()) || !same(got, want.Total()) {
			t.Fatalf("%s: Card.Total = %v, Price(...).Total() = %v", hw.Tuple(), got, want.Total())
		}
		num := 1 + rng.Int63n(12)
		den := 1 + rng.Int63n(12)
		scaled := card.WithD2DScale(num, den)
		sr := tr.ScaleD2D(num, den)
		wantScaled := referencePrice(&sr, &hw, cm)
		if got := scaled.Price(&tr); got != wantScaled {
			t.Fatalf("%s scale %d/%d: Card.Price = %+v, want %+v", hw.Tuple(), num, den, got, wantScaled)
		}
		if got := scaled.Total(&tr); !same(got, wantScaled.Total()) {
			t.Fatalf("%s scale %d/%d: Card.Total = %v, want %v", hw.Tuple(), num, den, got, wantScaled.Total())
		}
	}
	if singles == 0 || noOL2 == 0 {
		t.Fatalf("draws missed a case: %d single-chiplet, %d without O-L2", singles, noOL2)
	}
}
