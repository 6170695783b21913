// Package mapping implements NN-Baton's hierarchical output-centric dataflow
// description (§IV-A): spatial primitives partition an output cube across
// parallel chiplets and cores, temporal primitives order the sequential
// delivery of tile workloads, and the rotating primitive shares data among
// chiplets over the directional ring.
package mapping

import (
	"fmt"

	"nnbaton/internal/hardware"
	"nnbaton/internal/workload"
)

// Spatial selects the partition dimension of a spatial primitive (Fig 5).
type Spatial int

const (
	// SpatialC partitions along the output-channel dimension.
	SpatialC Spatial = iota
	// SpatialP partitions along the output plane (H and/or W).
	SpatialP
	// SpatialH is the hybrid chiplet-level partition along both the channel
	// and plane dimensions simultaneously (Fig 5(c)~(e)); package level only
	// supports C and P.
	SpatialH
)

// String implements fmt.Stringer using the paper's one-letter notation.
func (s Spatial) String() string {
	switch s {
	case SpatialC:
		return "C"
	case SpatialP:
		return "P"
	case SpatialH:
		return "H"
	}
	return fmt.Sprintf("Spatial(%d)", int(s))
}

// Temporal selects the loop-unrolling priority of a temporal primitive
// (Fig 6(a)): which dimension occupies the inner loop.
type Temporal int

const (
	// ChannelPriority places the output-channel loop innermost, favouring
	// activation reuse in upper levels and weight streaming.
	ChannelPriority Temporal = iota
	// PlanePriority places the H-W loops innermost, favouring weight reuse
	// when the weight buffers hold the workload's filters.
	PlanePriority
)

// String implements fmt.Stringer.
func (t Temporal) String() string {
	if t == ChannelPriority {
		return "chan-prio"
	}
	return "plane-prio"
}

// Pattern is a planar partition pattern: a Rows×Cols grid over the output
// plane (§IV-C). Rows:Cols expresses the paper's height:width ratios — e.g.
// {1, 4} is the 1:4 stripe and {2, 2} the 1:1 square.
type Pattern struct{ Rows, Cols int }

// Parts returns the number of grid cells.
func (p Pattern) Parts() int { return p.Rows * p.Cols }

// String implements fmt.Stringer.
func (p Pattern) String() string { return fmt.Sprintf("%dx%d", p.Rows, p.Cols) }

// GridPatterns appends to dst all Rows×Cols factorizations of n, so a
// caller can enumerate them into storage it owns.
func GridPatterns(dst []Pattern, n int) []Pattern {
	for r := 1; r <= n; r++ {
		if n%r == 0 {
			dst = append(dst, Pattern{Rows: r, Cols: n / r})
		}
	}
	return dst
}

// Mapping describes the complete orchestration of one layer on one hardware
// configuration: two spatial primitives, two temporal primitives, tile sizes
// and the rotating primitive.
type Mapping struct {
	// Package level.
	PackageSpatial  Spatial // C or P
	PackagePattern  Pattern // P only: grid over the plane, Parts == Chiplets
	PackageTemporal Temporal

	// Chiplet level.
	ChipletSpatial  Spatial
	ChipletCSplit   int     // ways the chiplet workload's CO splits across cores (1 for P, Cores for C, in-between for H)
	ChipletPattern  Pattern // planar grid over cores, Parts == Cores/ChipletCSplit
	ChipletTemporal Temporal

	// Temporal tile sizes: the chiplet workload HOt×WOt×COt delivered per
	// package-temporal step, and the core workload HOc×WOc×Lanes delivered
	// per chiplet-temporal step.
	HOt, WOt, COt int
	HOc, WOc      int

	// Rotate enables the rotating transfer of Fig 3 over the directional
	// ring, trading (N_P−1)× DRAM rereads of the shared datatype for
	// (N_P−1)× die-to-die hops.
	Rotate bool
}

// String renders the (package, chiplet) spatial pair of Fig 11's x-axis plus
// the temporal orders and tiles.
func (m Mapping) String() string {
	return fmt.Sprintf("(%v,%v) %v/%v tile=%dx%dx%d core=%dx%d",
		m.PackageSpatial, m.ChipletSpatial, m.PackageTemporal, m.ChipletTemporal,
		m.HOt, m.WOt, m.COt, m.HOc, m.WOc)
}

// ceilDiv returns ⌈a/b⌉.
func ceilDiv(a, b int) int {
	if b <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// Shape carries the derived per-level extents and loop trip counts of a
// mapping applied to one layer.
type Shape struct {
	// Per-chiplet output region after the package spatial split.
	HOp, WOp, COp int
	// Package-temporal trip counts over chiplet workloads.
	C1, H1, W1 int
	// Per-core output region after the chiplet spatial split.
	HOs, WOs, COs int
	// Chiplet-temporal trip counts over core workloads.
	C2, H2, W2 int
	// PlanarShareCores is the number of cores receiving the same planar
	// input tile via the A-L2 multicast bus (the channel-split ways).
	PlanarShareCores int
	// WeightShareCores is the number of cores whose W-L1 buffers merge into
	// one shared group because they use identical weights (§III-A2).
	WeightShareCores int
}

// PackagePositions returns the package-temporal step count per chiplet.
func (s *Shape) PackagePositions() int64 { return int64(s.C1) * int64(s.H1) * int64(s.W1) }

// ChipletPositions returns the chiplet-temporal step count per core.
func (s *Shape) ChipletPositions() int64 { return int64(s.C2) * int64(s.H2) * int64(s.W2) }

// Shape derives the per-level extents and trip counts for a layer on the
// given hardware. It does not validate; call Validate first. It reads the
// mapping, layer and hardware through pointers because the mapper's search
// derives a shape for every probe it materializes and evaluates.
func (m *Mapping) Shape(l *workload.Layer, hw *hardware.Config) (s Shape) {
	m.shapeInto(&s, l, hw)
	return s
}

// shapeInto is Shape writing every field of s in place.
func (m *Mapping) shapeInto(s *Shape, l *workload.Layer, hw *hardware.Config) {
	// Package spatial split.
	switch m.PackageSpatial {
	case SpatialC:
		s.HOp, s.WOp, s.COp = l.HO, l.WO, ceilDiv(l.CO, hw.Chiplets)
	default: // SpatialP
		s.HOp = ceilDiv(l.HO, m.PackagePattern.Rows)
		s.WOp = ceilDiv(l.WO, m.PackagePattern.Cols)
		s.COp = l.CO
	}
	// Package temporal tiling.
	s.C1 = ceilDiv(s.COp, m.COt)
	s.H1 = ceilDiv(s.HOp, m.HOt)
	s.W1 = ceilDiv(s.WOp, m.WOt)
	// Chiplet spatial split of the chiplet workload HOt×WOt×COt.
	csplit := m.ChipletCSplit
	if csplit < 1 {
		csplit = 1
	}
	s.COs = ceilDiv(m.COt, csplit)
	s.HOs = ceilDiv(m.HOt, m.ChipletPattern.Rows)
	s.WOs = ceilDiv(m.WOt, m.ChipletPattern.Cols)
	// Chiplet temporal tiling into core workloads of HOc×WOc×Lanes.
	s.C2 = ceilDiv(s.COs, hw.Lanes)
	s.H2 = ceilDiv(s.HOs, m.HOc)
	s.W2 = ceilDiv(s.WOs, m.WOc)
	// Cores along the channel split share planar input tiles (multicast);
	// cores along the planar split share weights (merged W-L1 pool).
	s.PlanarShareCores = csplit
	s.WeightShareCores = m.ChipletPattern.Parts()
}

// Validate checks structural consistency of the mapping for a layer and
// hardware configuration: pattern arity, split bounds, tile bounds and
// minimal buffer requirements (the O-L1 register file must hold the 24-bit
// partial sums of one core workload; A-L1 and W-L1 must hold a
// double-buffered streaming working set).
func (m Mapping) Validate(l workload.Layer, hw hardware.Config) error {
	if err := l.Validate(); err != nil {
		return err
	}
	if err := hw.Validate(); err != nil {
		return err
	}
	switch m.PackageSpatial {
	case SpatialC:
		if l.CO < hw.Chiplets {
			return fmt.Errorf("mapping: C-type package split: CO=%d < %d chiplets", l.CO, hw.Chiplets)
		}
	case SpatialP:
		if m.PackagePattern.Parts() != hw.Chiplets {
			return fmt.Errorf("mapping: package pattern %v covers %d parts, want %d chiplets",
				m.PackagePattern, m.PackagePattern.Parts(), hw.Chiplets)
		}
		if m.PackagePattern.Rows > l.HO || m.PackagePattern.Cols > l.WO {
			return fmt.Errorf("mapping: package pattern %v exceeds plane %dx%d", m.PackagePattern, l.HO, l.WO)
		}
	default:
		return fmt.Errorf("mapping: package spatial must be C or P, got %v", m.PackageSpatial)
	}
	// Chiplet split arity.
	csplit, planar := m.ChipletCSplit, m.ChipletPattern.Parts()
	switch m.ChipletSpatial {
	case SpatialC:
		if csplit != hw.Cores || planar != 1 {
			return fmt.Errorf("mapping: C-type chiplet split wants CSplit=%d pattern=1x1, got %d/%v",
				hw.Cores, csplit, m.ChipletPattern)
		}
	case SpatialP:
		if csplit != 1 || planar != hw.Cores {
			return fmt.Errorf("mapping: P-type chiplet split wants CSplit=1 pattern parts=%d, got %d/%v",
				hw.Cores, csplit, m.ChipletPattern)
		}
	case SpatialH:
		if csplit <= 1 || csplit >= hw.Cores || csplit*planar != hw.Cores {
			return fmt.Errorf("mapping: H-type chiplet split wants 1<CSplit<%d with CSplit*parts=%d, got %d/%v",
				hw.Cores, hw.Cores, csplit, m.ChipletPattern)
		}
	default:
		return fmt.Errorf("mapping: bad chiplet spatial %v", m.ChipletSpatial)
	}
	s := m.Shape(&l, &hw)
	// Tile bounds.
	switch {
	case m.COt <= 0 || m.HOt <= 0 || m.WOt <= 0 || m.HOc <= 0 || m.WOc <= 0:
		return fmt.Errorf("mapping: non-positive tile in %v", m)
	case m.COt > s.COp || m.HOt > s.HOp || m.WOt > s.WOp:
		return fmt.Errorf("mapping: chiplet tile %dx%dx%d exceeds chiplet region %dx%dx%d",
			m.HOt, m.WOt, m.COt, s.HOp, s.WOp, s.COp)
	case m.HOc > s.HOs || m.WOc > s.WOs:
		return fmt.Errorf("mapping: core tile %dx%d exceeds core region %dx%d", m.HOc, m.WOc, s.HOs, s.WOs)
	case m.COt < csplit:
		return fmt.Errorf("mapping: chiplet tile CO=%d smaller than channel split %d", m.COt, csplit)
	case m.ChipletPattern.Rows > m.HOt || m.ChipletPattern.Cols > m.WOt:
		return fmt.Errorf("mapping: chiplet pattern %v exceeds tile plane %dx%d", m.ChipletPattern, m.HOt, m.WOt)
	}
	if m.Rotate && hw.Chiplets == 1 {
		return fmt.Errorf("mapping: rotation requires more than one chiplet")
	}
	return m.validateBuffers(l, hw)
}

func (m Mapping) validateBuffers(l workload.Layer, hw hardware.Config) error {
	n := m.BufferNeeds(&l, &hw)
	if n.OL1 > int64(hw.OL1Bytes) {
		return fmt.Errorf("mapping: O-L1 needs %d B for %dx%dx%d psums, has %d",
			n.OL1, m.HOc, m.WOc, hw.Lanes, hw.OL1Bytes)
	}
	if n.AL1 > int64(hw.AL1Bytes) {
		return fmt.Errorf("mapping: A-L1 needs %d B double-buffered slice, has %d", n.AL1, hw.AL1Bytes)
	}
	if n.WL1 > int64(hw.WL1Bytes) {
		return fmt.Errorf("mapping: W-L1 needs %d B double-buffered chunk, has %d", n.WL1, hw.WL1Bytes)
	}
	if n.AL2 > int64(hw.AL2Bytes) {
		return fmt.Errorf("mapping: A-L2 needs %d B staging, has %d", n.AL2, hw.AL2Bytes)
	}
	if pool := int64(hw.WL1Bytes) * n.WeightShare; n.RotatingChunk > pool {
		return fmt.Errorf("mapping: rotating weight chunk %d B exceeds W-L1 pool %d", n.RotatingChunk, pool)
	}
	return nil
}
