// Package energy converts C³P traffic volumes into energy using the Table I
// cost model, producing the per-component breakdowns of Fig 11–13.
package energy

import (
	"fmt"
	"strings"

	"nnbaton/internal/c3p"
	"nnbaton/internal/hardware"
)

// Breakdown is the per-component energy of one layer (or model) execution,
// in picojoules, matching the stacked components of Fig 11/12.
type Breakdown struct {
	DRAM float64 // off-package DRAM reads and writes
	D2D  float64 // die-to-die ring traffic (and Simba psum NoP traffic)
	AL2  float64 // chiplet shared activation buffer (incl. Simba psum spill)
	AL1  float64 // core activation buffer
	WL1  float64 // core weight buffer
	OL1  float64 // output register file read-modify-writes
	OL2  float64 // chiplet output buffer
	MAC  float64 // multiply-accumulate operations
}

// Total returns the summed energy in pJ.
func (b Breakdown) Total() float64 {
	return sum(b.DRAM, b.D2D, b.AL2, b.AL1, b.WL1, b.OL1, b.OL2, b.MAC)
}

// sum adds the eight components in Breakdown order: the one summation both
// Breakdown.Total and Card.Total run.
func sum(dram, d2d, al2, al1, wl1, ol1, ol2, mac float64) float64 {
	return dram + d2d + al2 + al1 + wl1 + ol1 + ol2 + mac
}

// Add returns the element-wise sum.
func (b Breakdown) Add(o Breakdown) Breakdown {
	b.DRAM += o.DRAM
	b.D2D += o.D2D
	b.AL2 += o.AL2
	b.AL1 += o.AL1
	b.WL1 += o.WL1
	b.OL1 += o.OL1
	b.OL2 += o.OL2
	b.MAC += o.MAC
	return b
}

// Scale returns the breakdown multiplied by a constant.
func (b Breakdown) Scale(f float64) Breakdown {
	b.DRAM *= f
	b.D2D *= f
	b.AL2 *= f
	b.AL1 *= f
	b.WL1 *= f
	b.OL1 *= f
	b.OL2 *= f
	b.MAC *= f
	return b
}

// Components returns the breakdown as ordered (name, pJ) pairs for reports.
func (b Breakdown) Components() []struct {
	Name string
	PJ   float64
} {
	return []struct {
		Name string
		PJ   float64
	}{
		{"DRAM", b.DRAM}, {"D2D", b.D2D}, {"A-L2", b.AL2}, {"A-L1", b.AL1},
		{"W-L1", b.WL1}, {"O-L1", b.OL1}, {"O-L2", b.OL2}, {"MAC", b.MAC},
	}
}

// String renders a compact µJ summary.
func (b Breakdown) String() string {
	var sb strings.Builder
	for i, c := range b.Components() {
		if i > 0 {
			sb.WriteString(" ")
		}
		fmt.Fprintf(&sb, "%s=%.1fuJ", c.Name, c.PJ/1e6)
	}
	return sb.String()
}

// FromTraffic prices a traffic record on a hardware configuration; see Price.
func FromTraffic(t c3p.Traffic, hw hardware.Config, cm *hardware.CostModel) Breakdown {
	return Price(&t, &hw, cm)
}

// Price prices a traffic record on a hardware configuration through that
// configuration's rate card; see Card.
func Price(t *c3p.Traffic, hw *hardware.Config, cm *hardware.CostModel) Breakdown {
	c := NewCard(hw, cm)
	return c.Price(t)
}

// Card is the rate card of one hardware configuration: the per-unit energy
// of every component that depends on the buffer sizes and chiplet count,
// derived once so that pricing a traffic record is a dot product with
// constant rates. SRAM accesses cost the fitted per-bit energy of their
// macro size; the O-L1 register file costs one 24-bit read-modify-write per
// accumulation; Simba's partial-sum spills are priced at the A-L2 macro rate
// and its NoP psum hops at the D2D rate (already included in D2DBytes). A
// Card is a small value: the mapper's search keeps one per search and
// prices every bound and candidate through it without allocating.
type Card struct {
	al2, al1, wl1, ol2 float64 // SRAM pJ per bit at each buffer's macro size
	ol1                float64 // pJ per O-L1 read-modify-write
	// cross is the fraction of DRAM bytes that cross the package at the
	// die-to-die rate: chiplets reach the whole DRAM space through the
	// package crossbar (§III-A3), and an address lands on the chiplet's
	// local channel with probability 1/N_P. This is the physical cost that
	// makes scattering a fixed MAC budget over many chiplets progressively
	// more expensive (Fig 14).
	cross float64
	// num/den converts the record's logical die-to-die bytes to the
	// physical bytes the fabric moves (c3p.Traffic.ScaleD2D).
	num, den int64
}

// NewCard derives hw's rate card from the cost model. The O-L2 buffer falls
// back to the A-L2 macro rate when hw has no separate O-L2 size. The card
// charges the record's die-to-die bytes as they are; see WithD2DScale.
func NewCard(hw *hardware.Config, cm *hardware.CostModel) Card {
	ol2Size := hw.OL2Bytes
	if ol2Size <= 0 {
		ol2Size = hw.AL2Bytes
	}
	c := Card{
		al2: cm.SRAMPJPerBit(hw.AL2Bytes),
		al1: cm.SRAMPJPerBit(hw.AL1Bytes),
		wl1: cm.SRAMPJPerBit(hw.WL1Bytes),
		ol2: cm.SRAMPJPerBit(ol2Size),
		ol1: cm.RFRMWPJ(hw.OL1Bytes),
		num: 1, den: 1,
	}
	if hw.Chiplets > 1 {
		c.cross = float64(hw.Chiplets-1) / float64(hw.Chiplets)
	}
	return c
}

// WithD2DScale returns the card charging every record's die-to-die bytes
// scaled by num/den exactly as c3p.Traffic.ScaleD2D scales them.
func (c Card) WithD2DScale(num, den int64) Card {
	c.num, c.den = num, den
	return c
}

// Price prices a traffic record component by component.
func (c *Card) Price(t *c3p.Traffic) Breakdown {
	var b Breakdown
	b.DRAM, b.D2D, b.AL2, b.AL1, b.WL1, b.OL1, b.OL2, b.MAC = c.terms(t)
	return b
}

// Total returns Price(t).Total() bit for bit, without building the
// breakdown: the search's bounds and stage prune only compare totals.
// Breakdown has too many fields for the compiler to keep in registers, so
// summing a built one costs a store and a reload per component.
func (c *Card) Total(t *c3p.Traffic) float64 {
	return sum(c.terms(t))
}

// terms is the one pricing formula behind Price and Total, returning the
// components in Breakdown order. Every product is rounded explicitly (the
// float64 conversions), so no target may fuse it into a following addition
// (arm64 FMA) differently in Price and in Total.
func (c *Card) terms(t *c3p.Traffic) (dram, d2d, al2, al1, wl1, ol1, ol2, mac float64) {
	bits := func(bytes int64) float64 { return float64(bytes) * 8 }
	dramBits := bits(t.DRAMBytes())
	dram = float64(dramBits * hardware.DRAMPJPerBit)
	d2d = float64(bits(t.D2DBytesScaled(c.num, c.den))*hardware.D2DPJPerBit) +
		float64(dramBits*c.cross*hardware.D2DPJPerBit)
	al2 = float64(bits(t.AL2Writes+t.AL2Reads+t.L2Psum) * c.al2)
	al1 = float64(bits(t.AL1Writes+t.AL1Reads) * c.al1)
	wl1 = float64(bits(t.WL1Writes+t.WL1Reads) * c.wl1)
	ol1 = float64(float64(t.OL1RMW) * c.ol1)
	ol2 = float64(bits(t.OL2Writes+t.OL2Reads) * c.ol2)
	mac = float64(float64(t.MACs) * hardware.MACPJPerOp)
	return
}
