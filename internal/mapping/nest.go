package mapping

import "fmt"

// Dim identifies a temporal loop dimension of the output-centric nest. The
// output-centric dataflow reduces the unrolling space to the output channel
// and the output plane (§IV-A2); input channels and kernel offsets always
// run inside the core-level block.
type Dim int

const (
	// DimC iterates output-channel tiles.
	DimC Dim = iota
	// DimH iterates output-row tiles.
	DimH
	// DimW iterates output-column tiles.
	DimW
)

// String implements fmt.Stringer.
func (d Dim) String() string {
	switch d {
	case DimC:
		return "C"
	case DimH:
		return "H"
	case DimW:
		return "W"
	}
	return fmt.Sprintf("Dim(%d)", int(d))
}

// Level identifies which hierarchy level owns a temporal loop.
type Level int

const (
	// LevelPackage loops deliver chiplet workloads (counts C1/H1/W1).
	LevelPackage Level = iota
	// LevelChiplet loops deliver core workloads (counts C2/H2/W2).
	LevelChiplet
)

// Loop is one temporal loop of the hierarchical nest.
type Loop struct {
	Dim   Dim
	Count int
	Level Level
}

// String implements fmt.Stringer, e.g. "C1=4".
func (l Loop) String() string {
	return fmt.Sprintf("%v%d=%d", l.Dim, int(l.Level)+1, l.Count)
}

// appendOrdered appends one level's three loops in temporal-priority order:
// channel-priority places C innermost, plane-priority places H-W innermost.
func appendOrdered(dst []Loop, t Temporal, c, h, w Loop) []Loop {
	if t == ChannelPriority {
		return append(dst, h, w, c)
	}
	return append(dst, c, h, w)
}

// Nest returns the full temporal loop nest from outermost to innermost:
// package-temporal loops followed by chiplet-temporal loops. Unit loops
// (count 1) are retained; analyses treat them as free.
func (m Mapping) Nest(s Shape) []Loop { return m.AppendNest(nil, &s) }

// AppendNest appends the full temporal loop nest to dst (usually dst[:0] of a
// reused buffer) and returns the extended slice — the allocation-free form of
// Nest for the mapper's candidate loop. The first three loops are always the
// package level and the last three the chiplet level.
func (m *Mapping) AppendNest(dst []Loop, s *Shape) []Loop {
	dst = m.AppendPackageNest(dst, s)
	return m.AppendChipletNest(dst, s)
}

// ChipletNest returns only the chiplet-level temporal loops (outer→inner),
// the reuse scope of the per-core A-L1 and the W-L1 pool within one chiplet
// workload.
func (m Mapping) ChipletNest(s Shape) []Loop { return m.AppendChipletNest(nil, &s) }

// AppendChipletNest is the allocation-free form of ChipletNest.
func (m *Mapping) AppendChipletNest(dst []Loop, s *Shape) []Loop {
	return appendOrdered(dst, m.ChipletTemporal,
		Loop{DimC, s.C2, LevelChiplet}, Loop{DimH, s.H2, LevelChiplet}, Loop{DimW, s.W2, LevelChiplet})
}

// PackageNest returns only the package-level temporal loops (outer→inner),
// the reuse scope of the chiplet A-L2.
func (m Mapping) PackageNest(s Shape) []Loop { return m.AppendPackageNest(nil, &s) }

// AppendPackageNest is the allocation-free form of PackageNest.
func (m *Mapping) AppendPackageNest(dst []Loop, s *Shape) []Loop {
	return appendOrdered(dst, m.PackageTemporal,
		Loop{DimC, s.C1, LevelPackage}, Loop{DimH, s.H1, LevelPackage}, Loop{DimW, s.W1, LevelPackage})
}
