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
// member variant at hw's capacities; the mapper computes the minima by
// iterating the group's candidate lists (tile series × core pairs).
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

// GroupTrafficFloor writes into t a traffic record that is component-wise ≤
// the traffic at hw's capacities of every temporal variant of every probe in
// the group. pkg/rotate/csplit are the group's subtree constants (every
// member shares them); the open tile choices enter only through the
// minimized terms. The body mirrors FixedTraffic and assembleTraffic term by
// term — same branches, same integer divisions — so the group bound and the
// exact evaluation can never diverge structurally. Admissibility is pinned
// by the mapper's TestGroupBoundAdmissible.
func GroupTrafficFloor(t *Traffic, l *workload.Layer, hw *hardware.Config, pkg mapping.Spatial,
	rotate bool, csplit int, gt *GroupFloorTerms) {
	*t = Traffic{}
	chiplets := int64(hw.Chiplets)
	cores := int64(hw.Cores)
	pixel := mapping.CoreCycles(l, hw, 1, 1)

	// FixedTraffic counterparts. pkgPos·chipPos factors as
	// (C1·C2)·(H1·W1)·(H2·W2); cyclesPerWL contributes HOc·WOc·pixel, and
	// (H2·W2)·(HOc·WOc) is bounded jointly by PlanarCovMin.
	t.MACs = l.MACs()
	t.OL1RMW = chiplets * cores * gt.H1W1 * gt.OLChanMin * gt.PlanarCovMin * pixel
	t.AL1Reads = chiplets * cores * gt.H1W1 * gt.C12Min * gt.PlanarCovMin * pixel *
		int64(hw.Vector) * mapping.LaneGroupSpan(l, hw)
	wtPerWL := int64(hw.Lanes) * int64(hw.Vector) * pixel
	t.WL1Reads = chiplets * int64(csplit) * gt.C12Min * gt.H1W1 * gt.H2W2Min * wtPerWL
	out := l.OutputBytes()
	t.DRAMOutWrites = out
	t.OL2Writes = out
	t.OL2Reads = out

	// assembleTraffic counterparts: minimal fill volumes through the same
	// distribution branches (pkg spatial × rotate are subtree constants).
	// Weights enter at their intrinsic volume.
	wFillsMin := int64(hw.Lanes) * int64(l.CIPerGroup()) * int64(l.R) * int64(l.S) * gt.C12Min
	perChipletWt := wFillsMin * int64(csplit)
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

	t.AL1Writes = gt.AL1Min * cores * gt.C1Min * gt.H1W1 * chiplets
	t.AL2Reads = t.AL1Writes / int64(csplit)
	if pkg == mapping.SpatialC && rotate {
		t.AL2Reads += perChipletAct * (chiplets - 1)
	}
}
