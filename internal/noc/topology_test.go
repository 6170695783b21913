package noc

import (
	"math/bits"
	"strings"
	"testing"

	"nnbaton/internal/hardware"
)

// probeBytes exercises the cycle formulas across rounding regimes: below one
// cycle, exact multiples of the link bandwidth, and large prime sizes.
var probeBytes = []int64{0, 1, 7, 25, 50, 1000, 4096, 65536, 999983}

// assertTopologyEqual compares every Topology observable of two fabrics.
func assertTopologyEqual(t *testing.T, label string, want, got Topology) {
	t.Helper()
	if want.MaxHop() != got.MaxHop() {
		t.Errorf("%s: MaxHop %d vs %d", label, want.MaxHop(), got.MaxHop())
	}
	if want.TotalHop() != got.TotalHop() {
		t.Errorf("%s: TotalHop %d vs %d", label, want.TotalHop(), got.TotalHop())
	}
	if want.LinkContention() != got.LinkContention() {
		t.Errorf("%s: LinkContention %d vs %d", label, want.LinkContention(), got.LinkContention())
	}
	wn, wd := want.D2DScale()
	gn, gd := got.D2DScale()
	if wn != gn || wd != gd {
		t.Errorf("%s: D2DScale %d/%d vs %d/%d", label, wn, wd, gn, gd)
	}
	if want.Rounds() != got.Rounds() {
		t.Errorf("%s: Rounds %d vs %d", label, want.Rounds(), got.Rounds())
	}
	if want.RoundSyncCycles() != got.RoundSyncCycles() {
		t.Errorf("%s: RoundSyncCycles %d vs %d", label, want.RoundSyncCycles(), got.RoundSyncCycles())
	}
	for _, b := range probeBytes {
		if w, g := want.HopCycles(b), got.HopCycles(b); w != g {
			t.Errorf("%s: HopCycles(%d) %d vs %d", label, b, w, g)
		}
	}
}

// TestGenericRingHealthyClosedForms is the oracle property test of the
// tentpole: the generic hop-matrix engine instantiated on a ring graph must
// reproduce the paper's closed forms for n = 1..64 — far past the production
// 8-chiplet bound, so the agreement is structural, not coincidental.
func TestGenericRingHealthyClosedForms(t *testing.T) {
	for n := 1; n <= 64; n++ {
		g, err := NewGenericRingUnder(n, hardware.FaultMask{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if g.MaxHop() != 1 {
			t.Errorf("n=%d: MaxHop %d, closed form 1", n, g.MaxHop())
		}
		if g.TotalHop() != n {
			t.Errorf("n=%d: TotalHop %d, closed form n", n, g.TotalHop())
		}
		if g.LinkContention() != 1 {
			t.Errorf("n=%d: LinkContention %d; rotation paths partition the cycle", n, g.LinkContention())
		}
		if num, den := g.D2DScale(); num != int64(n) || den != int64(n) {
			t.Errorf("n=%d: D2DScale %d/%d, closed form n/n", n, num, den)
		}
		if g.Rounds() != max(0, n-1) {
			t.Errorf("n=%d: Rounds %d, closed form n-1", n, g.Rounds())
		}
		if g.RoundSyncCycles() != HopLatencyCycles {
			t.Errorf("n=%d: RoundSyncCycles %d, closed form %d", n, g.RoundSyncCycles(), HopLatencyCycles)
		}
		for _, b := range probeBytes {
			var per int64
			if b > 0 {
				per = int64(float64(b)/hardware.D2DBytesPerCycle + 0.999999)
			}
			if got := g.HopCycles(b); got != per {
				t.Errorf("n=%d: HopCycles(%d) = %d, closed form %d", n, b, got, per)
			}
		}
		// Within the production bound the closed-form *Ring is the oracle for
		// every observable at once.
		if n <= hardware.MaxChiplets {
			r, err := NewRing(n)
			if err != nil {
				t.Fatal(err)
			}
			assertTopologyEqual(t, "healthy ring", r, g)
		}
	}
}

// TestGenericRingDegradedMatchesClosedForm sweeps EVERY fault mask over 2–8
// physical positions with at least one survivor and checks the generic
// engine against NewRingUnder's closed-form rerouting, observable for
// observable. This is the exhaustive half of the ISSUE acceptance: ring
// behind the interface is provably identical under every mask.
func TestGenericRingDegradedMatchesClosedForm(t *testing.T) {
	for positions := 2; positions <= hardware.MaxChiplets; positions++ {
		for dead := 0; dead < 1<<positions; dead++ {
			survivors := positions - bits.OnesCount(uint(dead))
			if survivors < 1 {
				continue
			}
			mask := hardware.FaultMask{Chiplets: uint8(positions), Dead: uint8(dead)}
			ring, err := NewRingUnder(survivors, mask)
			if err != nil {
				t.Fatalf("positions=%d dead=%b: closed form: %v", positions, dead, err)
			}
			gen, err := NewGenericRingUnder(survivors, mask)
			if err != nil {
				t.Fatalf("positions=%d dead=%b: generic: %v", positions, dead, err)
			}
			assertTopologyEqual(t, mask.String(), ring, gen)
		}
	}
}

func TestMeshTorusStructure(t *testing.T) {
	for n := 1; n <= hardware.MaxChiplets; n++ {
		mesh, err := NewTopology(hardware.TopoMesh, n)
		if err != nil {
			t.Fatalf("mesh n=%d: %v", n, err)
		}
		torus, err := NewTopology(hardware.TopoTorus, n)
		if err != nil {
			t.Fatalf("torus n=%d: %v", n, err)
		}
		for kind, topo := range map[string]Topology{"mesh": mesh, "torus": torus} {
			if topo.LinkContention() < 1 || topo.MaxHop() < 1 {
				t.Errorf("%s n=%d: degenerate contention/maxhop", kind, n)
			}
			if num, den := topo.D2DScale(); num < den || den != int64(n) {
				t.Errorf("%s n=%d: D2DScale %d/%d — physical traffic cannot undercut logical", kind, n, num, den)
			}
			if topo.Rounds() != max(0, n-1) {
				t.Errorf("%s n=%d: Rounds %d", kind, n, topo.Rounds())
			}
		}
		// Wraparound links can only shorten paths.
		if torus.TotalHop() > mesh.TotalHop() {
			t.Errorf("n=%d: torus TotalHop %d exceeds mesh %d", n, torus.TotalHop(), mesh.TotalHop())
		}
	}
	// The 2×4 grid is the discriminating case: the row-major rotation cycle
	// re-crosses the mesh (TotalHop 14 > 8), while the torus' column wrap
	// links shorten the seam hops.
	mesh8, _ := NewTopology(hardware.TopoMesh, 8)
	torus8, _ := NewTopology(hardware.TopoTorus, 8)
	if mesh8.TotalHop() != 14 {
		t.Errorf("mesh 2x4 TotalHop = %d, want 14", mesh8.TotalHop())
	}
	if torus8.TotalHop() != 10 {
		t.Errorf("torus 2x4 TotalHop = %d, want 10", torus8.TotalHop())
	}
	if torus8.TotalHop() >= mesh8.TotalHop() {
		t.Error("2x4 torus must strictly beat the mesh rotation")
	}
}

func TestGridDims(t *testing.T) {
	cases := []struct{ n, rows, cols int }{
		{1, 1, 1}, {2, 1, 2}, {3, 1, 3}, {4, 2, 2}, {5, 1, 5},
		{6, 2, 3}, {7, 1, 7}, {8, 2, 4}, {9, 3, 3}, {12, 3, 4},
	}
	for _, c := range cases {
		if r, col := gridDims(c.n); r != c.rows || col != c.cols {
			t.Errorf("gridDims(%d) = %dx%d, want %dx%d", c.n, r, col, c.rows, c.cols)
		}
	}
}

func TestTopologyConstructorErrors(t *testing.T) {
	if _, err := NewTopologyUnder(hardware.Topology(9), 4, hardware.FaultMask{}); err == nil {
		t.Error("unknown topology kind must fail")
	}
	if _, err := NewTopology(hardware.TopoMesh, 0); err == nil {
		t.Error("mesh over zero chiplets must fail")
	}
	if _, err := NewTopology(hardware.TopoMesh, hardware.MaxChiplets+1); err == nil {
		t.Error("mesh past the production position bound must fail")
	}
	// Mask/config mismatch uses the same contract wording as NewRingUnder.
	_, err := NewTopologyUnder(hardware.TopoMesh, 3, hardware.FaultMask{Chiplets: 4})
	if err == nil || !strings.Contains(err.Error(), "surviving") {
		t.Errorf("survivor-count mismatch must fail with the ring's wording, got %v", err)
	}
}

// TestDegradedMeshReroutes checks the fault-masked generic engine on a
// non-ring fabric: a dead grid position keeps relaying and the rotation
// detours over it.
func TestDegradedMeshReroutes(t *testing.T) {
	// Eight positions on a 2×4 grid with position 1 dead: the seven
	// survivors keep the 8-position grid, so their rotation detours over the
	// dead relay and crosses the grid where a healthy 7-chiplet fabric (a
	// 1×7 grid) walks a line. Every observable is pinned, so a fabric that
	// ignored the mask — or the dead relay — reads different numbers.
	mask := hardware.FaultMask{Chiplets: 8, Dead: 1 << 1}
	type obs struct{ maxHop, totalHop, contention, rounds int }
	observe := func(kind hardware.Topology, chiplets int, mask hardware.FaultMask) obs {
		t.Helper()
		topo, err := NewTopologyUnder(kind, chiplets, mask)
		if err != nil {
			t.Fatal(err)
		}
		return obs{topo.MaxHop(), topo.TotalHop(), topo.LinkContention(), topo.Rounds()}
	}
	for _, tc := range []struct {
		name     string
		kind     hardware.Topology
		chiplets int
		mask     hardware.FaultMask
		want     obs
	}{
		{"masked mesh", hardware.TopoMesh, 7, mask, obs{4, 14, 2, 6}},
		{"healthy 7-chiplet mesh", hardware.TopoMesh, 7, hardware.FaultMask{}, obs{6, 12, 1, 6}},
		{"unmasked 8-chiplet mesh", hardware.TopoMesh, 8, hardware.FaultMask{}, obs{4, 14, 2, 7}},
		{"masked torus", hardware.TopoTorus, 7, mask, obs{2, 10, 2, 6}},
		{"healthy 7-chiplet torus", hardware.TopoTorus, 7, hardware.FaultMask{}, obs{1, 7, 1, 6}},
	} {
		if got := observe(tc.kind, tc.chiplets, tc.mask); got != tc.want {
			t.Errorf("%s: MaxHop/TotalHop/LinkContention/Rounds = %d/%d/%d/%d, want %d/%d/%d/%d", tc.name,
				got.maxHop, got.totalHop, got.contention, got.rounds,
				tc.want.maxHop, tc.want.totalHop, tc.want.contention, tc.want.rounds)
		}
	}
	masked := observe(hardware.TopoMesh, 7, mask)
	healthy := observe(hardware.TopoMesh, 7, hardware.FaultMask{})
	if masked.totalHop <= healthy.totalHop {
		t.Errorf("detoured rotation TotalHop %d must exceed the healthy 7-chiplet mesh's %d",
			masked.totalHop, healthy.totalHop)
	}
}

func TestNewInterconnect(t *testing.T) {
	hw := hardware.CaseStudy()
	hw.Topology = hardware.TopoMesh
	topo, xbar, err := NewInterconnect(hw, hardware.FaultMask{})
	if err != nil {
		t.Fatal(err)
	}
	// The case-study 2×2 mesh routes the diagonal rotation hops 1→2 and 3→0
	// over two links each; the ring over the same four chiplets needs one
	// per hop.
	if topo.TotalHop() != 6 {
		t.Errorf("mesh TotalHop = %d, want 6", topo.TotalHop())
	}
	if xbar.Channels != hw.Chiplets {
		t.Errorf("Channels = %d, want %d", xbar.Channels, hw.Chiplets)
	}
	hw.Topology = hardware.TopoRing
	ring, _, err := NewInterconnect(hw, hardware.FaultMask{})
	if err != nil {
		t.Fatal(err)
	}
	if ring.TotalHop() != 4 {
		t.Errorf("ring TotalHop = %d, want 4", ring.TotalHop())
	}
	hw.Topology = hardware.Topology(9)
	if _, _, err := NewInterconnect(hw, hardware.FaultMask{}); err == nil {
		t.Error("invalid topology must fail construction")
	}
}
