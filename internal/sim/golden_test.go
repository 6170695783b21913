package sim

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"nnbaton/internal/hardware"
	"nnbaton/internal/mapping"
	"nnbaton/internal/workload"
)

// traceGoldenCases spans both package-temporal orders, C- and P-type
// package splits, extents the splits and tiles do not divide, rotation on
// and off, and a 2-chiplet package.
func traceGoldenCases() []struct {
	name string
	l    workload.Layer
	hw   hardware.Config
	m    mapping.Mapping
} {
	odd := workload.Layer{Model: "t", Name: "odd", HO: 57, WO: 57, CO: 50, CI: 8,
		R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	hw4, hw2 := hardware.CaseStudy(), hardware.CaseStudy()
	hw2.Chiplets = 2

	cChan := simMapping()
	cPlane := simMapping()
	cPlane.PackageTemporal, cPlane.Rotate = mapping.PlanePriority, false
	cOdd := simMapping()
	cOdd.PackageTemporal, cOdd.HOt, cOdd.WOt, cOdd.COt = mapping.PlanePriority, 13, 10, 13
	pChan := mapping.Mapping{
		PackageSpatial: mapping.SpatialP, PackagePattern: mapping.Pattern{Rows: 2, Cols: 2},
		PackageTemporal: mapping.ChannelPriority,
		ChipletSpatial:  mapping.SpatialH, ChipletCSplit: 2, ChipletPattern: mapping.Pattern{Rows: 2, Cols: 2},
		ChipletTemporal: mapping.PlanePriority,
		HOt:             10, WOt: 8, COt: 16, HOc: 4, WOc: 4, Rotate: true,
	}
	pPlane := pChan
	pPlane.PackageTemporal, pPlane.ChipletTemporal, pPlane.Rotate = mapping.PlanePriority, mapping.ChannelPriority, false
	two := simMapping()
	two.COt = 12
	twoP := pChan
	twoP.PackagePattern = mapping.Pattern{Rows: 1, Cols: 2}

	return []struct {
		name string
		l    workload.Layer
		hw   hardware.Config
		m    mapping.Mapping
	}{
		{"C chan-prio rotate", simLayer(), hw4, cChan},
		{"C plane-prio", simLayer(), hw4, cPlane},
		{"C plane-prio rotate odd", odd, hw4, cOdd},
		{"P chan-prio rotate odd", odd, hw4, pChan},
		{"P plane-prio odd", odd, hw4, pPlane},
		{"2-chiplet C chan-prio rotate odd", odd, hw2, two},
		{"2-chiplet P chan-prio rotate odd", odd, hw2, twoP},
	}
}

// renderTrace writes every field of a trace, its full event log and its
// Gantt chart as text.
func renderTrace(t *testing.T, sb *strings.Builder, tr TraceResult) {
	t.Helper()
	fmt.Fprintf(sb, "cycles=%d positions=%d util=%v per-chiplet=%v\n",
		tr.Cycles, tr.Positions, tr.Utilization, tr.PerChiplet)
	for _, e := range tr.Events {
		fmt.Fprintf(sb, "  c%d p%d %v [%d,%d)\n", e.Chiplet, e.Position, e.Kind, e.Start, e.End)
	}
	if err := Gantt(sb, tr, 60); err != nil {
		t.Fatal(err)
	}
}

// TestTraceGolden pins Trace's full result and Gantt text on each golden
// case to testdata/trace_golden.txt, recorded before the simulator walked
// tiles through mapping's shared tile iterator. A change that is meant to
// move the trace rewrites that file from this test's rendering.
func TestTraceGolden(t *testing.T) {
	var sb strings.Builder
	for _, tc := range traceGoldenCases() {
		tr, err := Trace(analyzed(t, tc.l, tc.hw, tc.m), 1<<10)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fmt.Fprintf(&sb, "== %s: %v\n", tc.name, tc.m)
		renderTrace(t, &sb, tr)
	}
	want, err := os.ReadFile("testdata/trace_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("line %d:\n got %q\nwant %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("got %d lines, want %d", len(gl), len(wl))
}
