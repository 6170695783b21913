package c3p

// Group-level admissible traffic floors for the mapper's bound-ordered search.
//
// The mapper's group scan needs a bound on the *best* temporal variant a
// whole candidate group — a spatial subtree × planar pair, with the
// chiplet-tile and core-tile choices still open — can possibly produce,
// cheap enough to price hundreds of groups before expanding any. The mapper
// minimizes each shape-product term independently over the group's small
// candidate lists (min of a product is ≥ the product of per-factor minima,
// all factors being positive counts) and hands the minima to
// GroupTrafficFloor, which assembles them through exactly the distribution
// branches of FixedTraffic + assembleTraffic. The activation fill terms are
// the fewest fills any temporal order can incur at hw's A-L1 and A-L2
// capacities (MinAL1Fills, MinAL2Fills), so a cell that no order can keep
// under a critical capacity is priced with the refetch it cannot avoid.
// Every assembled component is therefore ≤ the corresponding component of
// every member variant's traffic at hw's capacities, and since the energy
// model is linear with non-negative coefficients the priced group bound is
// admissible for the whole group.

import (
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapping"
	"nnbaton/internal/workload"
)

// GroupFloorTerms are independently minimized shape-product terms over one
// candidate group. Each field is ≤ (or exactly) the named quantity of every
// member variant at hw's capacities; the mapper takes the minima over rows
// of per-tile terms it computes once per search (tile series × core pairs).
type GroupFloorTerms struct {
	// C1Min lower-bounds the package channel trip count C1.
	C1Min int64
	// C2Min lower-bounds the chiplet channel trip count C2.
	C2Min int64
	// C12Min lower-bounds the channel trip product C1·C2.
	C12Min int64
	// OLChanMin lower-bounds C1·C2·activeLanes (the O-L1 channel product;
	// activeLanes couples to the chiplet tile through COs).
	OLChanMin int64
	// H1W1 is the exact package planar trip count of the group's planar pair.
	H1W1 int64
	// H2W2Min lower-bounds the chiplet planar trip count H2·W2.
	H2W2Min int64
	// PlanarCovMin lower-bounds the planar coverage (H2·HOc)·(W2·WOc) — the
	// rounded-up core-tile sweep of the per-core region, ≥ HOs·WOs.
	PlanarCovMin int64
	// AL2Min lower-bounds the per-chiplet A-L2 fill volume: MinAL2Fills of
	// the planar pair at C1Min.
	AL2Min int64
	// AL1Min lower-bounds the per-core-workload A-L1 fill volume:
	// MinAL1Fills of each core tile at C2Min, minimized over the core tiles.
	AL1Min int64
}

// FloorConsts are the factors of GroupTrafficFloor that one layer on one
// compute allocation fixes: the per-pixel schedule, the layer's MAC and
// output volumes, the lane-group span and the weight footprint, folded into
// the products each traffic term scales. A search computes them once
// (NewFloorConsts) and every bound it prices reuses them.
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
}

// NewFloorConsts computes the factors GroupTrafficFloor needs of l on hw.
func NewFloorConsts(l *workload.Layer, hw *hardware.Config) FloorConsts {
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
	}
}

// GroupTrafficFloor writes into t a traffic record that is component-wise ≤
// the traffic at hw's capacities of every temporal variant of every probe in
// the group, k being the search's NewFloorConsts(l, hw). pkg, rotate and
// the chiplet's channel split into csplit ways of parts cores each
// (csplit·parts = hw.Cores) are the group's subtree constants (every member
// shares them); the open tile choices enter only through the minimized
// terms. The body mirrors FixedTraffic and assembleTraffic term by term —
// same branches — so the group bound and the exact evaluation can never
// diverge structurally. The products only regroup factors, which leaves
// every int64 result as it is. The one division of the exact assembly, the
// A-L2 reads' AL1Writes/csplit, is taken as the product with parts that it
// equals: csplit divides the cores factor of AL1Writes, and no traffic
// count comes near overflowing int64.
// Admissibility is pinned by the mapper's TestGroupBoundAdmissible.
func GroupTrafficFloor(t *Traffic, k *FloorConsts, pkg mapping.Spatial,
	rotate bool, csplit, parts int, gt *GroupFloorTerms) {
	*t = Traffic{}
	chiplets := k.chiplets

	// FixedTraffic counterparts. pkgPos·chipPos factors as
	// (C1·C2)·(H1·W1)·(H2·W2); cyclesPerWL contributes HOc·WOc·pixel, and
	// (H2·W2)·(HOc·WOc) is bounded jointly by PlanarCovMin.
	t.MACs = k.macs
	t.OL1RMW = k.ol1 * gt.H1W1 * gt.OLChanMin * gt.PlanarCovMin
	t.AL1Reads = k.al1Reads * gt.H1W1 * gt.C12Min * gt.PlanarCovMin
	t.WL1Reads = k.wl1Reads * int64(csplit) * gt.C12Min * gt.H1W1 * gt.H2W2Min
	t.DRAMOutWrites = k.out
	t.OL2Writes = k.out
	t.OL2Reads = k.out

	// assembleTraffic counterparts: minimal fill volumes through the same
	// distribution branches (pkg spatial × rotate are subtree constants).
	// Weights enter at their intrinsic volume.
	perChipletWt := k.wFoot * gt.C12Min * int64(csplit)
	t.WL1Writes = perChipletWt * chiplets
	if pkg == mapping.SpatialP && rotate {
		t.DRAMWtReads = perChipletWt
		t.D2DWts = perChipletWt * (chiplets - 1)
	} else {
		t.DRAMWtReads = perChipletWt * chiplets
	}

	perChipletAct := gt.AL2Min
	t.AL2Writes = perChipletAct * chiplets
	if pkg == mapping.SpatialC && rotate {
		t.DRAMActReads = perChipletAct
		t.D2DActs = perChipletAct * (chiplets - 1)
	} else {
		t.DRAMActReads = perChipletAct * chiplets
	}

	perCore := gt.AL1Min * gt.C1Min * gt.H1W1 * chiplets
	t.AL1Writes = perCore * k.cores
	t.AL2Reads = perCore * int64(parts)
	if pkg == mapping.SpatialC && rotate {
		t.AL2Reads += perChipletAct * (chiplets - 1)
	}
}
