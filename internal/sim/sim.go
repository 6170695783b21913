// Package sim estimates the runtime of a mapped layer on the multichip
// accelerator (§V-C: "We establish a simulator to obtain the runtime for a
// specific workload"). It models the double-buffered overlap of data loading
// and computation at the package-temporal granularity: each chiplet-workload
// position pipelines its DRAM/ring/bus transfers against the PE-array
// compute of the previous position.
package sim

import (
	"fmt"

	"nnbaton/internal/c3p"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapping"
	"nnbaton/internal/noc"
	"nnbaton/internal/obs"
)

// Result reports the simulated execution of one layer.
type Result struct {
	Cycles        int64   // total cycles at the nominal frequency
	ComputeCycles int64   // pure PE-array busy time (max across chiplets)
	StallCycles   int64   // cycles the arrays wait on data movement
	Utilization   float64 // achieved MACs / (cycles × peak MACs)
	Seconds       float64 // Cycles / FreqHz
}

// String summarizes the result.
func (r Result) String() string {
	return fmt.Sprintf("%d cycles (%.3f ms, util %.1f%%, stall %d)",
		r.Cycles, r.Seconds*1e3, r.Utilization*100, r.StallCycles)
}

// Simulate runs the tile-level pipeline model over a C³P analysis at the
// analysis' own buffer sizes. The per-position load time is the slowest of
// the DRAM channel, the ring link and the chiplet bus; with double-buffered
// A-L1/W-L1 the steady-state step time is max(load, compute) and only the
// first load is exposed.
func Simulate(a *c3p.Analysis) (Result, error) {
	return SimulateTraffic(a, a.Traffic())
}

// SimulateTraffic runs the pipeline model against an explicit traffic record
// (e.g. one re-evaluated at different buffer sizes by the pre-design memory
// sweep). Timed under the sim.pipeline phase of the default obs registry
// when metrics are enabled.
func SimulateTraffic(a *c3p.Analysis, tr c3p.Traffic) (Result, error) {
	defer obs.Time("sim.pipeline")()
	topo, xbar, err := noc.NewInterconnect(a.HW, hardware.FaultMask{})
	if err != nil {
		return Result{}, err
	}
	return SimulateTrafficOn(topo, xbar, a, tr)
}

// SimulateTrafficOn is SimulateTraffic with the interconnect models supplied
// by the caller (noc.NewInterconnect), for hot loops that evaluate many
// mappings against one hardware configuration: constructing the topology and
// crossbar once per search instead of once per candidate keeps the
// per-candidate path allocation-free. The topology and crossbar must match
// a.HW.Chiplets; neither is mutated, so one pair may serve concurrent calls.
func SimulateTrafficOn(topo noc.Topology, xbar *noc.Crossbar, a *c3p.Analysis, tr c3p.Traffic) (Result, error) {
	hw := a.HW
	s := a.Shape
	l := a.Layer
	positions := s.PackagePositions()
	if positions == 0 {
		return Result{}, fmt.Errorf("sim: mapping yields zero workload positions")
	}
	computePerPos := s.ChipletPositions() * mapping.CoreCycles(&l, &hw, a.Map.HOc, a.Map.WOc)

	chiplets := int64(hw.Chiplets)
	// Per-chiplet, per-position transfer volumes.
	dramPerPos := (tr.DRAMActReads + tr.DRAMWtReads + tr.DRAMOutWrites) / chiplets / positions
	d2dPerPos := (tr.D2DActs + tr.D2DWts + tr.D2DPsums + tr.D2DOutput) / chiplets / positions
	busPerPos := (tr.AL2Reads + tr.AL1Writes + tr.WL1Writes/chiplets + tr.OL2Writes) / chiplets / positions

	conflict := 1
	if !a.Map.Rotate && hw.Chiplets > 1 {
		// Without the rotating transfer, shared data is re-read by several
		// chiplets and contends at the crossbar.
		conflict = 2
	}
	// Each chiplet streams at its share of the fixed package memory system.
	loadPerPos := noc.LoadCyclesAt(dramPerPos, xbar.ChannelShare(), conflict)
	d2dCycles := topo.HopCycles(d2dPerPos)
	if d2dPerPos > 0 {
		// Rotation rounds synchronize the whole fabric once per logical hop;
		// the longest detour (and, off-ring, the busiest shared link) gates
		// every round.
		d2dCycles += int64(topo.Rounds()) * topo.RoundSyncCycles()
	}
	loadPerPos = max(loadPerPos, d2dCycles)
	loadPerPos = max(loadPerPos, int64(float64(busPerPos)/hardware.BusBytesPerCycle+0.999999))

	stepCycles := max(computePerPos, loadPerPos)
	total := loadPerPos + positions*stepCycles
	compute := positions * computePerPos

	peak := float64(hw.TotalMACs())
	util := 0.0
	if total > 0 && peak > 0 {
		util = float64(l.MACs()) / (float64(total) * peak)
	}
	return Result{
		Cycles:        total,
		ComputeCycles: compute,
		StallCycles:   total - compute,
		Utilization:   util,
		Seconds:       hardware.Seconds(total),
	}, nil
}

// ComputeBoundCycles returns the pure compute lower bound for the analysis'
// mapping — the runtime with infinite bandwidth, a sanity reference for the
// simulator. It is a true lower bound on SimulateTraffic's total for the same
// mapping: the simulated total is loadPerPos + positions×max(compute, load)
// ≥ positions×computePerPos, which is exactly this product.
func ComputeBoundCycles(a *c3p.Analysis) int64 {
	s := &a.Shape
	return s.PackagePositions() * s.ChipletPositions() *
		mapping.CoreCycles(&a.Layer, &a.HW, a.Map.HOc, a.Map.WOc)
}
