package sim

import (
	"strings"
	"testing"

	"nnbaton/internal/hardware"
	"nnbaton/internal/mapping"
	"nnbaton/internal/noc"
	"nnbaton/internal/workload"
)

func TestTraceBasics(t *testing.T) {
	a := analyzed(t, simLayer(), hardware.CaseStudy(), simMapping())
	tr, err := Trace(a, 16)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Cycles <= 0 {
		t.Fatalf("non-positive makespan: %+v", tr)
	}
	if tr.Cycles < ComputeBoundCycles(a)/2 {
		t.Errorf("trace %d cycles implausibly below compute bound %d", tr.Cycles, ComputeBoundCycles(a))
	}
	if len(tr.PerChiplet) != 4 {
		t.Fatalf("per-chiplet list = %v", tr.PerChiplet)
	}
	for c, cy := range tr.PerChiplet {
		if cy <= 0 || cy > tr.Cycles {
			t.Errorf("chiplet %d completion %d outside (0, %d]", c, cy, tr.Cycles)
		}
	}
	if tr.Positions == 0 {
		t.Error("no positions traced")
	}
	if tr.Utilization <= 0 || tr.Utilization > 1 {
		t.Errorf("utilization %f", tr.Utilization)
	}
	if !strings.Contains(tr.String(), "cycles") {
		t.Errorf("String = %q", tr.String())
	}
}

func TestTraceEventLog(t *testing.T) {
	a := analyzed(t, simLayer(), hardware.CaseStudy(), simMapping())
	tr, err := Trace(a, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) == 0 || len(tr.Events) > 8 {
		t.Fatalf("event log size %d", len(tr.Events))
	}
	var lastComputeEnd int64
	for _, e := range tr.Events {
		if e.End < e.Start {
			t.Errorf("event %v ends before it starts", e)
		}
		if e.Kind == EventCompute {
			// Computes on one chiplet are serialized in order.
			if e.Start < lastComputeEnd {
				t.Errorf("overlapping computes at position %d", e.Position)
			}
			lastComputeEnd = e.End
		}
	}
	// Event kinds have names.
	for _, k := range []EventKind{EventLoad, EventCompute, EventRotate} {
		if strings.HasPrefix(k.String(), "EventKind(") {
			t.Errorf("kind %d unnamed", int(k))
		}
	}
	if EventKind(42).String() != "EventKind(42)" {
		t.Error("unknown kind formatting")
	}
	// maxEvents = 0 keeps no events.
	tr0, err := Trace(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr0.Events) != 0 {
		t.Errorf("expected empty log, got %d", len(tr0.Events))
	}
}

// The closed-form estimate and the exact-tile trace must agree to within a
// small factor on a well-dividing workload.
func TestTraceMatchesClosedForm(t *testing.T) {
	a := analyzed(t, simLayer(), hardware.CaseStudy(), simMapping())
	closed, err := Simulate(a)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Trace(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := closed.Cycles/3, closed.Cycles*3
	if tr.Cycles < lo || tr.Cycles > hi {
		t.Errorf("trace %d cycles outside [%d, %d] of closed form", tr.Cycles, lo, hi)
	}
}

// Non-dividing channel splits leave the remainder chiplet less work: the
// per-chiplet completion times must expose the imbalance.
func TestTraceLoadImbalance(t *testing.T) {
	l := workload.Layer{Model: "t", Name: "odd", HO: 56, WO: 56, CO: 50, CI: 64,
		R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	m := simMapping()
	m.COt = 13
	a := analyzed(t, l, hardware.CaseStudy(), m)
	tr, err := Trace(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	// CO=50 over 4 chiplets: 13,13,12,12 — the later chiplets finish no
	// later than the first.
	if tr.PerChiplet[3] > tr.PerChiplet[0] {
		t.Errorf("remainder chiplet slower: %v", tr.PerChiplet)
	}
	if tr.Cycles != tr.PerChiplet[0] {
		t.Errorf("makespan %d should come from the fullest chiplet %v", tr.Cycles, tr.PerChiplet)
	}
}

func TestGantt(t *testing.T) {
	a := analyzed(t, simLayer(), hardware.CaseStudy(), simMapping())
	tr, err := Trace(a, 32)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Gantt(&sb, tr, 60); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "load") || !strings.Contains(out, "compute") {
		t.Errorf("missing lanes:\n%s", out)
	}
	if !strings.Contains(out, "#") || !strings.Contains(out, "L") {
		t.Errorf("missing glyphs:\n%s", out)
	}
	if !strings.Contains(out, "cycles") {
		t.Errorf("missing axis:\n%s", out)
	}
	// Tiny width is clamped, empty trace handled.
	var sb2 strings.Builder
	if err := Gantt(&sb2, TraceResult{}, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb2.String(), "no events") {
		t.Errorf("empty trace output = %q", sb2.String())
	}
}

// TestTraceRotationRoundSync pins each traced position's rotation time on
// the case-study 2×2 mesh, where a round's synchronization is gated by a
// two-link hop and a shared link (60 cycles, against 20 on the ring): every
// rotating load carries Rounds × (HopCycles(chunk) + RoundSyncCycles) on
// top of its DRAM streaming, as SimulateTrafficOn charges.
func TestTraceRotationRoundSync(t *testing.T) {
	hw := hardware.CaseStudy()
	hw.Topology = hardware.TopoMesh
	topo, xbar, err := noc.NewInterconnect(hw, hardware.FaultMask{})
	if err != nil {
		t.Fatal(err)
	}
	if topo.RoundSyncCycles() != 3*noc.HopLatencyCycles {
		t.Fatalf("mesh RoundSyncCycles = %d, want %d", topo.RoundSyncCycles(), 3*noc.HopLatencyCycles)
	}
	pChan := mapping.Mapping{
		PackageSpatial: mapping.SpatialP, PackagePattern: mapping.Pattern{Rows: 2, Cols: 2},
		PackageTemporal: mapping.ChannelPriority,
		ChipletSpatial:  mapping.SpatialH, ChipletCSplit: 2, ChipletPattern: mapping.Pattern{Rows: 2, Cols: 2},
		ChipletTemporal: mapping.PlanePriority,
		HOt:             14, WOt: 14, COt: 16, HOc: 4, WOc: 4, Rotate: true,
	}
	l := simLayer()
	for _, m := range []mapping.Mapping{simMapping(), pChan} {
		a := analyzed(t, l, hw, m)
		tr, err := Trace(a, 1<<12)
		if err != nil {
			t.Fatal(err)
		}
		var loads []Event
		for _, e := range tr.Events {
			if e.Kind == EventLoad {
				loads = append(loads, e)
			}
		}
		rotating := 0
		_ = m.PackageTiles(m.ChipletRegion(&l, &hw, 0), func(p mapping.Tile) error {
			var chunk int64
			switch {
			case m.PackageSpatial == mapping.SpatialC:
				chunk = l.TileInputBytes(p.HO(), p.WO(), l.CI) / int64(hw.Chiplets)
			case p.NewChannels:
				chunk = int64(p.CO()) * int64(l.CIPerGroup()) * int64(l.R) * int64(l.S) / int64(hw.Chiplets)
			}
			var want int64
			if chunk > 0 {
				want = int64(topo.Rounds()) * (topo.HopCycles(chunk) + topo.RoundSyncCycles())
				rotating++
			}
			e := loads[p.Pos]
			if got := e.End - e.Start - loadTime(a, xbar.ChannelShare(), p); got != want {
				t.Errorf("%v position %d: rotation %d cycles, want %d", m, p.Pos, got, want)
			}
			return nil
		})
		if rotating == 0 {
			t.Errorf("%v: no position rotates", m)
		}
	}
}
