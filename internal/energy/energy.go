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

// sum adds the eight components in Breakdown order: the one summation
// Breakdown.Total, Card.Total, Partial.Total and Cell.Total run. Addition
// runs left to right, so the sum is tail over the first two components'
// sum.
func sum(dram, d2d, al2, al1, wl1, ol1, ol2, mac float64) float64 {
	return tail(dram+d2d, al2, al1, wl1, ol1, ol2, mac)
}

// tail finishes sum from the sum head of its DRAM and D2D components.
func tail(head, al2, al1, wl1, ol1, ol2, mac float64) float64 {
	return head + al2 + al1 + wl1 + ol1 + ol2 + mac
}

// Add returns the element-wise sum.
func (b Breakdown) Add(o Breakdown) Breakdown {
	b.Accumulate(&o)
	return b
}

// Accumulate adds o to b element by element, in place: b = b.Add(*o)
// without the by-value copies of both breakdowns, which explore pays per
// memory point and model layer.
func (b *Breakdown) Accumulate(o *Breakdown) {
	b.DRAM += o.DRAM
	b.D2D += o.D2D
	b.AL2 += o.AL2
	b.AL1 += o.AL1
	b.WL1 += o.WL1
	b.OL1 += o.OL1
	b.OL2 += o.OL2
	b.MAC += o.MAC
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
	// SRAM pJ per byte at each buffer's macro size: 8× the fitted per-bit
	// energy. Scaling by 8 is exact in binary floating point, so pricing
	// bytes at these rates rounds exactly as pricing bits at the per-bit
	// ones.
	al2, al1, wl1, ol2 float64
	ol1                float64 // pJ per O-L1 read-modify-write
	// cross8 is 8× the fraction of DRAM bytes that cross the package at the
	// die-to-die rate: chiplets reach the whole DRAM space through the
	// package crossbar (§III-A3), and an address lands on the chiplet's
	// local channel with probability 1/N_P. This is the physical cost that
	// makes scattering a fixed MAC budget over many chiplets progressively
	// more expensive (Fig 14).
	cross8 float64
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
		al2: 8 * cm.SRAMPJPerBit(hw.AL2Bytes),
		al1: 8 * cm.SRAMPJPerBit(hw.AL1Bytes),
		wl1: 8 * cm.SRAMPJPerBit(hw.WL1Bytes),
		ol2: 8 * cm.SRAMPJPerBit(ol2Size),
		ol1: cm.RFRMWPJ(hw.OL1Bytes),
		num: 1, den: 1,
	}
	if hw.Chiplets > 1 {
		c.cross8 = 8 * (float64(hw.Chiplets-1) / float64(hw.Chiplets))
	}
	return c
}

// WithD2DScale returns the card charging every record's die-to-die bytes
// scaled by num/den exactly as c3p.Traffic.ScaleD2D scales them.
func (c Card) WithD2DScale(num, den int64) Card {
	c.num, c.den = num, den
	return c
}

// Per-byte DRAM and die-to-die energies: 8× the per-bit ones, exact.
const (
	dramPJPerByte = 8 * hardware.DRAMPJPerBit
	d2dPJPerByte  = 8 * hardware.D2DPJPerBit
)

// Price prices a traffic record component by component.
func (c *Card) Price(t *c3p.Traffic) Breakdown {
	var b Breakdown
	dram, d2d, al2, al1, wl1, ol1, ol2, macs := c.sums(t)
	b.DRAM, b.D2D = c.fixedTerms(dram, d2d)
	b.AL2, b.AL1, b.WL1, b.OL1 = c.bufferTerms(al2, al1, wl1, ol1)
	b.OL2, b.MAC = c.outTerms(ol2, macs)
	return b
}

// Total returns Price(t).Total() bit for bit, without building the
// breakdown: the search's stage prune only compares totals. Breakdown has
// too many fields for the compiler to keep in registers, so summing a built
// one costs a store and a reload per component.
func (c *Card) Total(t *c3p.Traffic) float64 {
	dram, d2d, al2, al1, wl1, ol1, ol2, macs := c.sums(t)
	p := c.Partial(dram, d2d, ol2, macs)
	return p.Total(al2, al1, wl1, ol1)
}

// sums returns the eight per-level integer sums a record is priced from, in
// Breakdown order, its die-to-die bytes scaled to the physical ones.
func (c *Card) sums(t *c3p.Traffic) (dram, d2d, al2, al1, wl1, ol1, ol2, macs int64) {
	return t.DRAMBytes(), t.D2DBytesScaled(c.num, c.den), t.AL2Writes + t.AL2Reads + t.L2Psum,
		t.AL1Writes + t.AL1Reads, t.WL1Writes + t.WL1Reads, t.OL1RMW, t.OL2Writes + t.OL2Reads, t.MACs
}

// Levels is a record's eight per-level integer sums as a card prices them,
// in Breakdown order: DRAM bytes, physical die-to-die bytes, A-L2, A-L1 and
// W-L1 bytes, O-L1 read-modify-writes, O-L2 bytes and MACs.
type Levels struct {
	DRAM, D2D, AL2, AL1, WL1, OL1, OL2, MACs int64
}

// Levels returns t's per-level sums, its die-to-die bytes scaled by the
// card's num/den. The sums are additive over records whose die-to-die bytes
// sit in different fields, such as c3p.Analysis's axis parts.
func (c *Card) Levels(t *c3p.Traffic) Levels {
	var l Levels
	l.DRAM, l.D2D, l.AL2, l.AL1, l.WL1, l.OL1, l.OL2, l.MACs = c.sums(t)
	return l
}

// Partial is a total priced as far as its DRAM bytes, physical die-to-die
// bytes, O-L2 bytes and MACs: the sum of its first two components and its
// last two, with the four buffer sums between them still open. The
// search's bounds fix those four sums per group or chiplet tile and vary
// the buffer sums per core tile, so they price the fixed part once
// (Card.Partial) and each bound from it (Partial.Total).
type Partial struct {
	c              *Card
	head, ol2, mac float64
}

// Partial prices a total's DRAM bytes, physical die-to-die bytes (already
// scaled), O-L2 bytes and MACs.
func (c *Card) Partial(dram, d2d, ol2, macs int64) Partial {
	dt, d2t := c.fixedTerms(dram, d2d)
	p := Partial{c: c, head: dt + d2t}
	p.ol2, p.mac = c.outTerms(ol2, macs)
	return p
}

// Total completes the partial total with the A-L2, A-L1 and W-L1 bytes and
// the O-L1 read-modify-writes: Card.Total, bit for bit, of any record with
// these eight sums.
func (p *Partial) Total(al2, al1, wl1, ol1 int64) float64 {
	a2, a1, w1, o1 := p.c.bufferTerms(al2, al1, wl1, ol1)
	return tail(p.head, a2, a1, w1, o1, p.ol2, p.mac)
}

// Cell is a memory-grid total priced as far as its DRAM, die-to-die and
// A-L2 terms: on explore's grid those three sums add parts from more than
// one buffer axis, while the A-L1, W-L1, O-L1, O-L2 and MAC terms each
// depend on one axis only, so explore prices them once per axis value.
type Cell struct {
	dram, d2d, al2 float64
}

// Cell prices a cell's DRAM bytes, physical die-to-die bytes and A-L2
// bytes; c must carry the cell's A-L2 size.
func (c *Card) Cell(dram, d2d, al2 int64) Cell {
	var p Cell
	p.dram, p.d2d = c.fixedTerms(dram, d2d)
	p.al2, _, _, _ = c.bufferTerms(al2, 0, 0, 0)
	return p
}

// Total completes the cell's total with its single-axis terms: Card.Total,
// bit for bit, of any record with the cell's sums when each term is that
// record's Price component at a card carrying the cell's size on the
// term's axis.
func (p Cell) Total(al1, wl1, ol1, ol2, mac float64) float64 {
	return tail(p.dram+p.d2d, p.al2, al1, wl1, ol1, ol2, mac)
}

// Breakdown completes the cell's breakdown with its single-axis terms:
// Card.Price of the same record under Total's conditions.
func (p Cell) Breakdown(al1, wl1, ol1, ol2, mac float64) Breakdown {
	return Breakdown{DRAM: p.dram, D2D: p.d2d, AL2: p.al2, AL1: al1, WL1: wl1, OL1: ol1, OL2: ol2, MAC: mac}
}

// fixedTerms, bufferTerms and outTerms are the one pricing formula behind
// Price, Total, Partial and Cell, each pricing its components' integer
// sums. Every product is rounded explicitly (the float64 conversions), so
// no target may fuse it into a following addition (arm64 FMA) differently
// in Price and in Total.
func (c *Card) fixedTerms(dram, d2d int64) (dramPJ, d2dPJ float64) {
	bytes := float64(dram)
	dramPJ = float64(bytes * dramPJPerByte)
	d2dPJ = float64(float64(d2d)*d2dPJPerByte) + float64(float64(bytes*c.cross8)*hardware.D2DPJPerBit)
	return
}

func (c *Card) bufferTerms(al2, al1, wl1, ol1 int64) (al2PJ, al1PJ, wl1PJ, ol1PJ float64) {
	al2PJ = float64(float64(al2) * c.al2)
	al1PJ = float64(float64(al1) * c.al1)
	wl1PJ = float64(float64(wl1) * c.wl1)
	ol1PJ = float64(float64(ol1) * c.ol1)
	return
}

func (c *Card) outTerms(ol2, macs int64) (ol2PJ, macPJ float64) {
	return float64(float64(ol2) * c.ol2), float64(float64(macs) * hardware.MACPJPerOp)
}
