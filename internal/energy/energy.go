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
	return b.DRAM + b.D2D + b.AL2 + b.AL1 + b.WL1 + b.OL1 + b.OL2 + b.MAC
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

// Price prices a traffic record on a hardware configuration. SRAM accesses
// cost the fitted per-bit energy of their macro size; the O-L1 register file
// costs one 24-bit read-modify-write per accumulation; Simba's partial-sum
// spills are priced at the A-L2 macro rate and its NoP psum hops at the D2D
// rate (already included in D2DBytes). It reads its arguments through
// pointers because the mapper's search calls it once per bound and candidate.
func Price(t *c3p.Traffic, hw *hardware.Config, cm *hardware.CostModel) Breakdown {
	bits := func(bytes int64) float64 { return float64(bytes) * 8 }
	ol2Size := hw.OL2Bytes
	if ol2Size <= 0 {
		ol2Size = hw.AL2Bytes
	}
	// Chiplets reach the whole DRAM space through the package crossbar
	// (§III-A3); an address lands on the chiplet's local channel with
	// probability 1/N_P, so the remaining fraction crosses the package at
	// the die-to-die rate. This is the physical cost that makes scattering
	// a fixed MAC budget over many chiplets progressively more expensive
	// (Fig 14).
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

// EDP returns the energy-delay product in pJ·s.
func EDP(b Breakdown, seconds float64) float64 { return b.Total() * seconds }
