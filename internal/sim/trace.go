package sim

import (
	"fmt"

	"nnbaton/internal/c3p"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapping"
	"nnbaton/internal/noc"
	"nnbaton/internal/obs"
	"nnbaton/internal/workload"
)

// EventKind labels a trace event.
type EventKind int

const (
	// EventLoad is a DRAM/ring/bus transfer for one chiplet workload.
	EventLoad EventKind = iota
	// EventCompute is the PE-array execution of one chiplet workload.
	EventCompute
	// EventRotate is a ring rotation round.
	EventRotate
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventLoad:
		return "load"
	case EventCompute:
		return "compute"
	case EventRotate:
		return "rotate"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one pipeline stage occurrence in the trace.
type Event struct {
	Chiplet  int
	Position int
	Kind     EventKind
	Start    int64 // cycle
	End      int64 // cycle
}

// TraceResult is the outcome of the discrete-event simulation.
type TraceResult struct {
	// Cycles is the package makespan: the slowest chiplet's completion.
	Cycles int64
	// PerChiplet holds each chiplet's completion cycle, exposing load
	// imbalance from non-dividing spatial splits.
	PerChiplet []int64
	// Positions is the number of chiplet-workload deliveries on the
	// critical chiplet.
	Positions int
	// Events holds up to the requested number of pipeline events from the
	// critical chiplet.
	Events []Event
	// Utilization is achieved MACs over cycle-weighted peak MACs.
	Utilization float64
}

// String summarizes the trace.
func (r TraceResult) String() string {
	return fmt.Sprintf("%d cycles over %d positions (util %.1f%%)",
		r.Cycles, r.Positions, r.Utilization*100)
}

// position is one chiplet workload with exact (edge-clamped) extents.
type position struct {
	hot, wot, cot int
	newChannels   bool // first visit of this channel tile: weights load
}

// chipletRegion returns the exact output region of chiplet c under the
// mapping's package-spatial split, using balanced remainders.
func chipletRegion(l workload.Layer, hw hardware.Config, m mapping.Mapping, c int) (ho, wo, co int) {
	share := func(total, parts, idx int) int {
		base, rem := total/parts, total%parts
		if idx < rem {
			return base + 1
		}
		return base
	}
	switch m.PackageSpatial {
	case mapping.SpatialC:
		return l.HO, l.WO, share(l.CO, hw.Chiplets, c)
	default:
		r := c / m.PackagePattern.Cols
		cc := c % m.PackagePattern.Cols
		return share(l.HO, m.PackagePattern.Rows, r), share(l.WO, m.PackagePattern.Cols, cc), l.CO
	}
}

// positionsFor enumerates the exact chiplet-workload sequence of one chiplet,
// honoring the package-temporal order and clamping edge tiles.
func positionsFor(m mapping.Mapping, hop, wop, cop int) []position {
	clamp := func(tile, extent, idx int) int { return min(tile, extent-idx*tile) }
	nC := (cop + m.COt - 1) / m.COt
	nH := (hop + m.HOt - 1) / m.HOt
	nW := (wop + m.WOt - 1) / m.WOt
	var out []position
	emit := func(ci, hi, wi int, newCh bool) {
		out = append(out, position{
			hot: clamp(m.HOt, hop, hi), wot: clamp(m.WOt, wop, wi), cot: clamp(m.COt, cop, ci),
			newChannels: newCh,
		})
	}
	if m.PackageTemporal == mapping.ChannelPriority {
		// H, W outer; C inner: weights change every step.
		for hi := 0; hi < nH; hi++ {
			for wi := 0; wi < nW; wi++ {
				for ci := 0; ci < nC; ci++ {
					emit(ci, hi, wi, true)
				}
			}
		}
	} else {
		// C outer; H, W inner: weights load once per channel tile.
		for ci := 0; ci < nC; ci++ {
			first := true
			for hi := 0; hi < nH; hi++ {
				for wi := 0; wi < nW; wi++ {
					emit(ci, hi, wi, first)
					first = false
				}
			}
		}
	}
	return out
}

// Trace runs a discrete-event double-buffered pipeline simulation of the
// analysis' mapping with exact edge tiles. Unlike Simulate's closed form, it
// models per-chiplet load imbalance (ceilings vs remainders), the
// alternating load/compute buffer occupancy, and per-round ring rotation.
// maxEvents caps the retained event log (0 keeps none).
//
// Timed under the sim.trace phase of the default obs registry when metrics
// are enabled.
func Trace(a *c3p.Analysis, maxEvents int) (TraceResult, error) {
	defer obs.Time("sim.trace")()
	hw, l, m := a.HW, a.Layer, a.Map
	topo, xbar, err := noc.NewInterconnect(hw, hardware.FaultMask{})
	if err != nil {
		return TraceResult{}, err
	}
	dramShare := xbar.ChannelShare()

	res := TraceResult{PerChiplet: make([]int64, hw.Chiplets)}
	var totalBusy int64
	for c := 0; c < hw.Chiplets; c++ {
		hop, wop, cop := chipletRegion(l, hw, m, c)
		if cop == 0 || hop == 0 || wop == 0 {
			continue
		}
		positions := positionsFor(m, hop, wop, cop)
		var loadFree, compFree int64 // next cycle each resource is available
		keep := c == 0 && maxEvents > 0
		for pi, p := range positions {
			loadCycles := loadTime(a, dramShare, p)
			rotCycles := rotationTime(a, topo, p)
			// The load engine streams into the shadow buffer as soon as it
			// is free; compute for position pi starts when both the load
			// finishes and the array drains position pi−1.
			loadStart := loadFree
			loadEnd := loadStart + loadCycles + rotCycles
			loadFree = loadEnd
			compCycles := computeTime(l, hw, m, p)
			compStart := max(compFree, loadEnd)
			compEnd := compStart + compCycles
			compFree = compEnd
			totalBusy += compCycles
			if keep && len(res.Events) < maxEvents {
				res.Events = append(res.Events,
					Event{Chiplet: c, Position: pi, Kind: EventLoad, Start: loadStart, End: loadEnd},
					Event{Chiplet: c, Position: pi, Kind: EventCompute, Start: compStart, End: compEnd})
			}
		}
		res.PerChiplet[c] = compFree
		if c == 0 {
			res.Positions = len(positions)
		}
		res.Cycles = max(res.Cycles, compFree)
	}
	if res.Cycles > 0 {
		res.Utilization = float64(l.MACs()) / (float64(res.Cycles) * float64(hw.TotalMACs()))
	}
	return res, nil
}

// computeTime returns the PE-array cycles for one exact-position workload.
func computeTime(l workload.Layer, hw hardware.Config, m mapping.Mapping, p position) int64 {
	// Chiplet-spatial split of the exact tile, ceil-covered.
	csplit := max(1, m.ChipletCSplit)
	cos := (p.cot + csplit - 1) / csplit
	hos := (p.hot + m.ChipletPattern.Rows - 1) / m.ChipletPattern.Rows
	wos := (p.wot + m.ChipletPattern.Cols - 1) / m.ChipletPattern.Cols
	c2 := int64((cos + hw.Lanes - 1) / hw.Lanes)
	h2 := int64((hos + m.HOc - 1) / m.HOc)
	w2 := int64((wos + m.WOc - 1) / m.WOc)
	return c2 * h2 * w2 * mapping.CoreCycles(&l, &hw, m.HOc, m.WOc)
}

// loadTime returns the DRAM streaming cycles for one exact position.
func loadTime(a *c3p.Analysis, dramShare float64, p position) int64 {
	l := a.Layer
	bytes := l.TileInputBytes(p.hot, p.wot, l.CI)
	if a.Map.Rotate && a.Map.PackageSpatial == mapping.SpatialC {
		bytes /= int64(a.HW.Chiplets) // resident chunk only; rest arrives by rotation
	}
	if p.newChannels {
		wt := int64(p.cot) * int64(l.CIPerGroup()) * int64(l.R) * int64(l.S)
		if a.Map.Rotate && a.Map.PackageSpatial == mapping.SpatialP {
			wt /= int64(a.HW.Chiplets)
		}
		bytes += wt
	}
	// Output drain of the previous position shares the channel.
	bytes += int64(p.hot) * int64(p.wot) * int64(p.cot)
	return int64(float64(bytes)/dramShare + 0.999999)
}

// rotationTime returns the interconnect cycles for the rotating transfer of
// one exact position.
func rotationTime(a *c3p.Analysis, ring noc.Topology, p position) int64 {
	if !a.Map.Rotate || a.HW.Chiplets <= 1 {
		return 0
	}
	l := a.Layer
	var chunk int64
	if a.Map.PackageSpatial == mapping.SpatialC {
		chunk = l.TileInputBytes(p.hot, p.wot, l.CI) / int64(a.HW.Chiplets)
	} else if p.newChannels {
		chunk = int64(p.cot) * int64(l.CIPerGroup()) * int64(l.R) * int64(l.S) / int64(a.HW.Chiplets)
	}
	if chunk <= 0 {
		return 0
	}
	return ring.RotationCycles(chunk) + int64(ring.Rounds())*noc.HopLatencyCycles
}
