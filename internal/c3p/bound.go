package c3p

// Group-level admissible traffic floors for the mapper's bound-ordered search.
//
// The mapper's group scan needs a bound on the *best* temporal variant a
// whole candidate group — a spatial subtree × planar pair, with the
// chiplet-tile and core-tile choices still open — can possibly produce,
// cheap enough to price hundreds of groups before expanding any. The mapper
// minimizes each shape-product term independently over the group's small
// candidate lists (min of a product is ≥ the product of per-factor minima,
// all factors being positive counts), and the floor assembles the minima
// through exactly the distribution branches of FixedTraffic +
// assembleTraffic. The activation fill terms are the fewest fills any
// temporal order can incur at hw's A-L1 and A-L2 capacities (MinAL1Fills,
// MinAL2Fills), so a cell that no order can keep under a critical capacity
// is priced with the refetch it cannot avoid. Every assembled component is
// therefore ≤ the corresponding component of every member variant's traffic
// at hw's capacities, and since the energy model is linear with
// non-negative coefficients the priced group bound is admissible for the
// whole group.
//
// The floor is never built as a Traffic record. A bound is priced from the
// eight per-level integer sums a record is priced from (DRAM, physical
// die-to-die, A-L2, A-L1, W-L1, O-L1, O-L2, MACs; see energy.Card), and
// each factor of those sums is folded in at the scan level that fixes it,
// in two stages:
//
//   - BoundPrefix.Fold folds the search constants (FloorConsts), the
//     subtree's distribution branches (SubtreeFloor), the channel terms,
//     the package planar trips and the A-L2 fill floor — once per group for
//     its coarse bound and once per chiplet tile of an expanded group. The
//     prefix holds the complete DRAM, scaled die-to-die and O-L2 bytes and
//     MACs (Fixed), and the base and multipliers of the A-L2, A-L1, W-L1
//     and O-L1 sums.
//   - BoundPrefix.Complete finishes those four sums from the three
//     core-tile terms (H2·W2, the planar coverage and the A-L1 fill floor)
//     in five integer multiplies: the subgroup bound from the group's core
//     minima, each cell bound from its own core tile.
//
// The stages only regroup int64 products and sums, which int64's wrapping
// arithmetic leaves exact; the die-to-die bytes are scaled field by field as
// Traffic.D2DBytesScaled scales them. So every sum equals the one the
// assembled record would give, and the priced bound is bit-identical to
// pricing that record (pinned by the mapper's TestBoundPrefixMatchesRecord).

import (
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapping"
	"nnbaton/internal/workload"
)

// FloorConsts are the factors of a bound that one layer on one compute
// allocation and fabric fixes: the per-pixel schedule, the layer's MAC and
// output volumes, the lane-group span, the weight footprint and the
// fabric's die-to-die scale, folded into the products each traffic term
// scales. A search computes them once (NewFloorConsts) and every bound it
// prices reuses them.
type FloorConsts struct {
	chiplets, cores int64
	macs, out       int64
	// ol1 = chiplets·cores·pixel, al1Reads = ol1·Vector·LaneGroupSpan and
	// wl1Reads = chiplets·Lanes·Vector·pixel, pixel being the PE-array
	// cycles of one output pixel.
	ol1, al1Reads, wl1Reads int64
	// wFoot is the weight footprint Lanes·CIPerGroup·R·S of one channel
	// trip.
	wFoot int64
	// num/den scales logical die-to-die bytes to physical ones; scaled
	// reports whether it differs from the identity (D2DBytesScaled).
	num, den int64
	scaled   bool
}

// NewFloorConsts computes the bound factors of l on hw over a fabric whose
// die-to-die scale is num/den.
func NewFloorConsts(l *workload.Layer, hw *hardware.Config, num, den int64) FloorConsts {
	chiplets, cores := int64(hw.Chiplets), int64(hw.Cores)
	pixel := mapping.CoreCycles(l, hw, 1, 1)
	ol1 := chiplets * cores * pixel
	return FloorConsts{
		chiplets: chiplets, cores: cores,
		macs: l.MACs(), out: l.OutputBytes(),
		ol1:      ol1,
		al1Reads: ol1 * int64(hw.Vector) * mapping.LaneGroupSpan(l, hw),
		wl1Reads: chiplets * int64(hw.Lanes) * int64(hw.Vector) * pixel,
		wFoot:    int64(hw.Lanes) * int64(l.CIPerGroup()) * int64(l.R) * int64(l.S),
		num:      num, den: den, scaled: num != den && den > 0,
	}
}

// SubtreeFloor are the factors of a bound that one spatial subtree fixes on
// top of its search's FloorConsts: the package split and rotation pick the
// distribution branches of assembleTraffic, and the chiplet's channel split
// into csplit ways of parts cores each (csplit·parts = hw.Cores) scales the
// weight and A-L2 read volumes. The branches become multipliers, so a bound
// runs none of them.
type SubtreeFloor struct {
	// wt = wFoot·csplit is the per-chiplet weight volume of one channel
	// trip product C1·C2, and wl1Reads the search's W-L1 register loads
	// times csplit.
	wt, wl1Reads int64
	// wtDRAM and wtD2D take the per-chiplet weight volume to the DRAM
	// weight reads and the die-to-die weight bytes: 1 and chiplets−1 on a
	// rotating P split, chiplets and 0 otherwise. actDRAM and actD2D do the
	// same for the A-L2 fills on a rotating C split, whose forwarding also
	// reads actD2D chunks out of A-L2.
	wtDRAM, wtD2D, actDRAM, actD2D int64
	// parts replaces the cores factor of the A-L1 writes to give the
	// A-L2 reads, AL1Writes/csplit, as the product it equals
	// (csplit·parts = cores).
	parts int64
}

// Subtree returns the bound factors of a subtree with package split pkg,
// rotation rotate and a chiplet channel split into csplit ways of parts
// cores each.
func (k *FloorConsts) Subtree(pkg mapping.Spatial, rotate bool, csplit, parts int) SubtreeFloor {
	f := SubtreeFloor{
		wt: k.wFoot * int64(csplit), wl1Reads: k.wl1Reads * int64(csplit),
		wtDRAM: k.chiplets, actDRAM: k.chiplets,
		parts: int64(parts),
	}
	if pkg == mapping.SpatialP && rotate {
		f.wtDRAM, f.wtD2D = 1, k.chiplets-1
	}
	if pkg == mapping.SpatialC && rotate {
		f.actDRAM, f.actD2D = 1, k.chiplets-1
	}
	return f
}

// BoundPrefix is a bound with its core-tile terms still open: the complete
// DRAM, scaled die-to-die and O-L2 bytes and MACs, and the A-L2, A-L1,
// W-L1 and O-L1 sums as a base plus multipliers of the core-tile terms.
// Fold builds it and Complete finishes it.
type BoundPrefix struct {
	dram, d2d int64
	// A-L2 = al2 + al2Fill·AL1; A-L1 = al1Fill·AL1 + al1Read·coverage;
	// W-L1 = wl1 + wl1Read·H2W2; O-L1 = ol1·coverage; AL1 being the A-L1
	// fill term and coverage the planar coverage term.
	al2, al2Fill      int64
	al1Fill, al1Read  int64
	wl1, wl1Read, ol1 int64
	ol2, macs         int64
}

// Fold sets p to the bound prefix of the probes of subtree st whose
// channel terms are bounded below by c1 (the package channel trips C1),
// c12 (the trip product C1·C2) and olChans (the O-L1 channel product
// C1·C2·activeLanes), h1w1 being their package planar trip count and al2
// their A-L2 fill floor, on the search of k.
func (p *BoundPrefix) Fold(k *FloorConsts, st *SubtreeFloor, c1, c12, olChans, h1w1, al2 int64) {
	// FixedTraffic counterparts: pkgPos·chipPos factors as
	// (C1·C2)·(H1·W1)·(H2·W2); cyclesPerWL contributes HOc·WOc·pixel, and
	// (H2·W2)·(HOc·WOc) is the coverage term Complete supplies.
	// assembleTraffic counterparts: the minimal fill volumes through the
	// subtree's distribution multipliers; weights enter at their intrinsic
	// volume.
	wt := st.wt * c12
	actD2D, wtD2D := al2*st.actD2D, wt*st.wtD2D
	p.dram = al2*st.actDRAM + wt*st.wtDRAM + k.out
	if k.scaled {
		p.d2d = scaleCeil(actD2D, k.num, k.den) + scaleCeil(wtD2D, k.num, k.den)
	} else {
		p.d2d = actD2D + wtD2D
	}
	perCore := c1 * h1w1 * k.chiplets
	p.al2, p.al2Fill = al2*k.chiplets+actD2D, perCore*st.parts
	p.al1Fill, p.al1Read = perCore*k.cores, k.al1Reads*h1w1*c12
	p.wl1, p.wl1Read = wt*k.chiplets, st.wl1Reads*c12*h1w1
	p.ol1 = k.ol1 * h1w1 * olChans
	p.ol2, p.macs = 2*k.out, k.macs
}

// Fixed returns the sums p fixes whole: the DRAM bytes, the physical
// die-to-die bytes, the O-L2 bytes and the MACs.
func (p *BoundPrefix) Fixed() (dram, d2d, ol2, macs int64) {
	return p.dram, p.d2d, p.ol2, p.macs
}

// Complete returns the A-L2, A-L1 and W-L1 bytes and the O-L1
// read-modify-writes of p's bound at the core-tile terms h2w2 (the chiplet
// planar trips H2·W2), cov (the planar coverage (H2·HOc)·(W2·WOc),
// ≥ HOs·WOs) and al1 (the A-L1 fill floor at the probes' smallest C2).
func (p *BoundPrefix) Complete(h2w2, cov, al1 int64) (al2Bytes, al1Bytes, wl1Bytes, ol1RMW int64) {
	return p.al2 + p.al2Fill*al1, p.al1Fill*al1 + p.al1Read*cov, p.wl1 + p.wl1Read*h2w2, p.ol1 * cov
}
