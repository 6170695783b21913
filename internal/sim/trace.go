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

// Trace runs a discrete-event double-buffered pipeline simulation of the
// analysis' mapping over each chiplet's exact, edge-clamped package tiles
// in package-temporal order (mapping.PackageTiles). Unlike Simulate's
// closed form, it models per-chiplet load imbalance (ceilings vs
// remainders), the alternating load/compute buffer occupancy, and
// per-round ring rotation.
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
	for c := 0; c < hw.Chiplets; c++ {
		var loadFree, compFree int64 // next cycle each resource is available
		keep := c == 0 && maxEvents > 0
		positions := 0
		// The callback never fails, so neither does the walk.
		_ = m.PackageTiles(m.ChipletRegion(&l, &hw, c), func(p mapping.Tile) error {
			loadCycles := loadTime(a, dramShare, p)
			rotCycles := rotationTime(a, topo, p)
			// The load engine streams into the shadow buffer as soon as it
			// is free; compute for position p starts when both the load
			// finishes and the array drains position p−1.
			loadStart := loadFree
			loadEnd := loadStart + loadCycles + rotCycles
			loadFree = loadEnd
			compCycles := computeTime(l, hw, m, p)
			compStart := max(compFree, loadEnd)
			compEnd := compStart + compCycles
			compFree = compEnd
			if keep && len(res.Events) < maxEvents {
				res.Events = append(res.Events,
					Event{Chiplet: c, Position: p.Pos, Kind: EventLoad, Start: loadStart, End: loadEnd},
					Event{Chiplet: c, Position: p.Pos, Kind: EventCompute, Start: compStart, End: compEnd})
			}
			positions++
			return nil
		})
		res.PerChiplet[c] = compFree
		if c == 0 {
			res.Positions = positions
		}
		res.Cycles = max(res.Cycles, compFree)
	}
	if res.Cycles > 0 {
		res.Utilization = float64(l.MACs()) / (float64(res.Cycles) * float64(hw.TotalMACs()))
	}
	return res, nil
}

// computeTime returns the PE-array cycles for one exact-position workload.
func computeTime(l workload.Layer, hw hardware.Config, m mapping.Mapping, p mapping.Tile) int64 {
	// Chiplet-spatial split of the exact tile, ceil-covered.
	csplit := max(1, m.ChipletCSplit)
	cos := (p.CO() + csplit - 1) / csplit
	hos := (p.HO() + m.ChipletPattern.Rows - 1) / m.ChipletPattern.Rows
	wos := (p.WO() + m.ChipletPattern.Cols - 1) / m.ChipletPattern.Cols
	c2 := int64((cos + hw.Lanes - 1) / hw.Lanes)
	h2 := int64((hos + m.HOc - 1) / m.HOc)
	w2 := int64((wos + m.WOc - 1) / m.WOc)
	return c2 * h2 * w2 * mapping.CoreCycles(&l, &hw, m.HOc, m.WOc)
}

// loadTime returns the DRAM streaming cycles for one exact position.
func loadTime(a *c3p.Analysis, dramShare float64, p mapping.Tile) int64 {
	l := a.Layer
	bytes := l.TileInputBytes(p.HO(), p.WO(), l.CI)
	if a.Map.Rotate && a.Map.PackageSpatial == mapping.SpatialC {
		bytes /= int64(a.HW.Chiplets) // resident chunk only; rest arrives by rotation
	}
	if p.NewChannels {
		wt := int64(p.CO()) * int64(l.CIPerGroup()) * int64(l.R) * int64(l.S)
		if a.Map.Rotate && a.Map.PackageSpatial == mapping.SpatialP {
			wt /= int64(a.HW.Chiplets)
		}
		bytes += wt
	}
	// Output drain of the previous position shares the channel.
	bytes += int64(p.HO()) * int64(p.WO()) * int64(p.CO())
	return int64(float64(bytes)/dramShare + 0.999999)
}

// rotationTime returns the interconnect cycles for the rotating transfer of
// one exact position: each round moves one chunk per link and then pays the
// fabric's round synchronization, as in SimulateTrafficOn.
func rotationTime(a *c3p.Analysis, topo noc.Topology, p mapping.Tile) int64 {
	if !a.Map.Rotate || a.HW.Chiplets <= 1 {
		return 0
	}
	l := a.Layer
	var chunk int64
	if a.Map.PackageSpatial == mapping.SpatialC {
		chunk = l.TileInputBytes(p.HO(), p.WO(), l.CI) / int64(a.HW.Chiplets)
	} else if p.NewChannels {
		chunk = int64(p.CO()) * int64(l.CIPerGroup()) * int64(l.R) * int64(l.S) / int64(a.HW.Chiplets)
	}
	if chunk <= 0 {
		return 0
	}
	return int64(topo.Rounds()) * (topo.HopCycles(chunk) + topo.RoundSyncCycles())
}
