package mapping

import (
	"cmp"

	"nnbaton/internal/hardware"
	"nnbaton/internal/workload"
)

// Feasible reports whether the mapping passes every structural and buffer
// constraint that Validate checks, without constructing error values. It
// assumes the layer and hardware configuration are themselves valid
// (Validate re-checks those first); under that precondition
// Feasible(l, hw) == (Validate(l, hw) == nil), a lockstep enforced by
// TestFeasibleMatchesValidate.
func (m Mapping) Feasible(l workload.Layer, hw hardware.Config) bool {
	var s Shape
	return m.FeasibleShape(&l, &hw, &s)
}

// FeasibleShape is Feasible reading its arguments through pointers that
// also hands back the shape the check derives: when it reports true, *s
// equals Shape(l, hw) (otherwise *s is unspecified). The mapper's search
// checks every cell it materializes and prices the feasible ones from their
// shape, so it derives each shape once; the fmt.Errorf allocations of
// Validate's reject paths would dominate its profile. The shape is written
// in place because copying the 100-byte value out was visible there too.
func (m *Mapping) FeasibleShape(l *workload.Layer, hw *hardware.Config, s *Shape) bool {
	return m.structurallyFeasible(l, hw, s) && m.BufferNeeds(l, hw).Fits(hw)
}

// StructurallyFeasible reports whether the mapping passes Validate's checks
// that do not involve buffer sizes: spatial kinds and split arity, pattern
// bounds, tile bounds, and rotation on a multi-chiplet package. It reads
// only hw's compute allocation, so for a fixed compute configuration it is
// fixed per (layer shape, mapping) — the pre-design memory sweep checks it
// once per candidate and only BufferNeeds per memory point.
func (m *Mapping) StructurallyFeasible(l *workload.Layer, hw *hardware.Config) bool {
	var s Shape
	return m.structurallyFeasible(l, hw, &s)
}

// structurallyFeasible is StructurallyFeasible writing the shape it derives
// on the way into s; s is left as it was when a check before the
// derivation rejects.
func (m *Mapping) structurallyFeasible(l *workload.Layer, hw *hardware.Config, s *Shape) bool {
	switch m.PackageSpatial {
	case SpatialC:
		if l.CO < hw.Chiplets {
			return false
		}
	case SpatialP:
		if m.PackagePattern.Parts() != hw.Chiplets ||
			m.PackagePattern.Rows > l.HO || m.PackagePattern.Cols > l.WO {
			return false
		}
	default:
		return false
	}
	csplit, planar := m.ChipletCSplit, m.ChipletPattern.Parts()
	switch m.ChipletSpatial {
	case SpatialC:
		if csplit != hw.Cores || planar != 1 {
			return false
		}
	case SpatialP:
		if csplit != 1 || planar != hw.Cores {
			return false
		}
	case SpatialH:
		if csplit <= 1 || csplit >= hw.Cores || csplit*planar != hw.Cores {
			return false
		}
	default:
		return false
	}
	m.shapeInto(s, l, hw)
	switch {
	case m.COt <= 0 || m.HOt <= 0 || m.WOt <= 0 || m.HOc <= 0 || m.WOc <= 0,
		m.COt > s.COp || m.HOt > s.HOp || m.WOt > s.WOp,
		m.HOc > s.HOs || m.WOc > s.WOs,
		m.COt < csplit,
		m.ChipletPattern.Rows > m.HOt || m.ChipletPattern.Cols > m.WOt:
		return false
	}
	return !(m.Rotate && hw.Chiplets == 1)
}

// BufferNeeds is the minimum buffer allocation one mapping of one layer
// needs, in bytes. It depends only on the layer shape, the mapping and the
// compute allocation, never on the buffer sizes it is checked against.
type BufferNeeds struct {
	// OL1 holds the 24-bit partial sums of one HOc×WOc×Lanes core workload.
	OL1 int64
	// AL1 streams the double-buffered P-channel input slice of the core tile.
	AL1 int64
	// WL1 streams the double-buffered Lanes×P×R×S weight chunk.
	WL1 int64
	// AL2 stages the double-buffered chiplet-resident activation chunk: 1/N_P
	// of the chiplet-workload input when rotating a C-type package split,
	// the core-workload slice otherwise.
	AL2 int64
	// RotatingChunk is the per-hop weight chunk of a rotating P-type package
	// split (0 otherwise); it must fit the W-L1 pool merged across the
	// WeightShare cores that use identical weights.
	RotatingChunk int64
	WeightShare   int64
}

// BufferNeeds derives the mapping's buffer needs on hw's compute allocation.
// Validate renders them into error messages and Feasible only compares them,
// so the two can never disagree on the accept set. A tile field still at
// zero adds a need of zero, so a mapping filled in down to one tile level
// carries exactly the needs that level and those above it fix. The mapper's
// search checks each need at the level that fixes it: the W-L1 need on the
// empty mapping, the two outer-level needs through their own formulas
// (RotatingChunkNeed per chiplet tile, RotatingAL2Need per planar pair) and
// the core-tile needs through CoreOL1Need and CoreAL1Need.
func (m *Mapping) BufferNeeds(l *workload.Layer, hw *hardware.Config) BufferNeeds {
	slice := CoreAL1Need(l, hw, m.HOc, m.WOc)
	n := BufferNeeds{
		OL1:         CoreOL1Need(hw, m.HOc, m.WOc),
		AL1:         slice,
		WL1:         2 * int64(hw.Lanes) * int64(vectorCI(l, hw)) * int64(l.R) * int64(l.S),
		AL2:         slice,
		WeightShare: int64(m.ChipletPattern.Parts()),
	}
	if m.Rotate && m.PackageSpatial == SpatialC {
		n.AL2 = RotatingAL2Need(l, hw, m.HOt, m.WOt)
	}
	if m.Rotate && m.PackageSpatial == SpatialP {
		n.RotatingChunk = RotatingChunkNeed(l, hw, m.COt)
	}
	return n
}

// RotatingAL2Need is the A-L2 need of a rotating C-type package split with
// hot×wot chiplet tiles: the chiplet's 1/N_P share of the tile input over
// the layer's input channels, double-buffered. The planar pair alone fixes
// it, so the mapper's search checks it once per planar pair.
func RotatingAL2Need(l *workload.Layer, hw *hardware.Config, hot, wot int) int64 {
	return 2 * l.TileInputBytes(hot, wot, ceilDiv(l.CI, hw.Chiplets))
}

// RotatingChunkNeed is the per-hop weight chunk of a rotating P-type
// package split with cot-channel chiplet tiles, checked against the W-L1
// pool merged across the cores that share weights (BufferNeeds.WeightShare).
// The chiplet tile alone fixes it, so the mapper's search checks it once
// per chiplet tile.
func RotatingChunkNeed(l *workload.Layer, hw *hardware.Config, cot int) int64 {
	return 2 * int64(cot) * int64(l.CIPerGroup()) * int64(l.R) * int64(l.S) / int64(hw.Chiplets)
}

// CoreOL1Need is the O-L1 need of an hoc×woc core tile: the 24-bit partial
// sums of its Lanes output channels. CoreOL1Need(hw, 1, 1) is the need of
// one output pixel.
func CoreOL1Need(hw *hardware.Config, hoc, woc int) int64 {
	return int64(hoc) * int64(woc) * int64(hw.Lanes) * 3
}

// CoreAL1Need is the A-L1 need of an hoc×woc core tile: its input slice over
// one vector of a group's input channels, double-buffered. Below it the R×S
// window refetches the slice from A-L2 (the Cc₀ point of the C³P A-L1 walk).
func CoreAL1Need(l *workload.Layer, hw *hardware.Config, hoc, woc int) int64 {
	return 2 * l.TileInputBytes(hoc, woc, vectorCI(l, hw))
}

// vectorCI is the input channels one vector step reads: P of them, or a
// whole group's when the group has fewer.
func vectorCI(l *workload.Layer, hw *hardware.Config) int {
	return min(hw.Vector, l.CIPerGroup())
}

// CoreCycles is the PE-array cycles of one hoc×woc core workload: each
// output pixel takes R·S·⌈CI_g/P⌉ vector steps, its Lanes output channels
// in parallel. CoreCycles(l, hw, 1, 1) is the schedule of one output pixel.
func CoreCycles(l *workload.Layer, hw *hardware.Config, hoc, woc int) int64 {
	steps := (int64(l.CIPerGroup()) + int64(hw.Vector) - 1) / int64(hw.Vector)
	return int64(hoc) * int64(woc) * int64(l.R) * int64(l.S) * steps
}

// LaneGroupSpan is the A-L1 read multiplier of a grouped convolution: the
// groups one Lanes-wide window of output channels spans, since lanes that
// cover distinct groups fetch distinct input slices (a depthwise layer
// loses the lane broadcast of the input entirely). It is 1 for a dense
// layer.
func LaneGroupSpan(l *workload.Layer, hw *hardware.Config) int64 {
	if l.G() <= 1 {
		return 1
	}
	span := (hw.Lanes + l.COPerGroup() - 1) / l.COPerGroup()
	return int64(max(1, min(hw.Lanes, span)))
}

// Fits reports whether buffers of hw's sizes meet every need.
func (n BufferNeeds) Fits(hw *hardware.Config) bool {
	return n.OL1 <= int64(hw.OL1Bytes) && n.FitsAt(hw.AL1Bytes, hw.WL1Bytes, hw.AL2Bytes)
}

// FitsAt reports whether the given per-core A-L1 and W-L1 and per-chiplet
// A-L2 sizes — the capacities c3p.Analysis.TrafficAt substitutes — meet
// every need but O-L1's.
func (n BufferNeeds) FitsAt(al1, wl1, al2 int) bool {
	return n.FitsAL1(al1) && n.FitsWL1(wl1) && n.FitsAL2(al2)
}

// FitsAL1, FitsWL1 and FitsAL2 are FitsAt's checks of one buffer each: the
// A-L1 need; the W-L1 need and the rotating chunk against the merged pool;
// the A-L2 need.
func (n BufferNeeds) FitsAL1(al1 int) bool { return n.AL1 <= int64(al1) }

func (n BufferNeeds) FitsWL1(wl1 int) bool {
	return n.WL1 <= int64(wl1) && n.RotatingChunk <= int64(wl1)*n.WeightShare
}

func (n BufferNeeds) FitsAL2(al2 int) bool { return n.AL2 <= int64(al2) }

// Compare orders two mappings by a fixed lexicographic key over every field:
// spatial primitives, patterns, temporal orders, tile sizes, rotation. It is
// a strict total order on distinct mappings, which the mapper uses to break
// exact energy ties deterministically — serial, parallel and pruned
// searches then agree on the top-K set regardless of evaluation order.
func Compare(a, b Mapping) int {
	if c := cmp.Compare(a.PackageSpatial, b.PackageSpatial); c != 0 {
		return c
	}
	if c := cmp.Compare(a.PackagePattern.Rows, b.PackagePattern.Rows); c != 0 {
		return c
	}
	if c := cmp.Compare(a.PackagePattern.Cols, b.PackagePattern.Cols); c != 0 {
		return c
	}
	if c := cmp.Compare(a.PackageTemporal, b.PackageTemporal); c != 0 {
		return c
	}
	if c := cmp.Compare(a.ChipletSpatial, b.ChipletSpatial); c != 0 {
		return c
	}
	if c := cmp.Compare(a.ChipletCSplit, b.ChipletCSplit); c != 0 {
		return c
	}
	if c := cmp.Compare(a.ChipletPattern.Rows, b.ChipletPattern.Rows); c != 0 {
		return c
	}
	if c := cmp.Compare(a.ChipletPattern.Cols, b.ChipletPattern.Cols); c != 0 {
		return c
	}
	if c := cmp.Compare(a.ChipletTemporal, b.ChipletTemporal); c != 0 {
		return c
	}
	if c := cmp.Compare(a.COt, b.COt); c != 0 {
		return c
	}
	if c := cmp.Compare(a.HOt, b.HOt); c != 0 {
		return c
	}
	if c := cmp.Compare(a.WOt, b.WOt); c != 0 {
		return c
	}
	if c := cmp.Compare(a.HOc, b.HOc); c != 0 {
		return c
	}
	if c := cmp.Compare(a.WOc, b.WOc); c != 0 {
		return c
	}
	return cmp.Compare(boolKey(a.Rotate), boolKey(b.Rotate))
}

func boolKey(b bool) int {
	if b {
		return 1
	}
	return 0
}
