package noc

import (
	"testing"
	"testing/quick"

	"nnbaton/internal/hardware"
)

func TestNewRingBounds(t *testing.T) {
	for _, n := range []int{0, -1, 9, 100} {
		if _, err := NewRing(n); err == nil {
			t.Errorf("NewRing(%d) should fail", n)
		}
	}
	r, err := NewRing(4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rounds() != 3 {
		t.Errorf("Rounds = %d, want 3", r.Rounds())
	}
	one, _ := NewRing(1)
	if one.Rounds() != 0 || one.RotationCycles(1000) != 0 {
		t.Error("single chiplet must not rotate")
	}
}

func TestRotationAccounting(t *testing.T) {
	r, _ := NewRing(4)
	// 1000-byte chunks: each of 4 chunks takes 3 hops = 12000 link bytes.
	if got := r.RotationTrafficBytes(1000); got != 12000 {
		t.Errorf("RotationTrafficBytes = %d, want 12000", got)
	}
	// Time: 3 rounds of one concurrent hop each.
	hop := r.HopCycles(1000)
	if got := r.RotationCycles(1000); got != 3*hop {
		t.Errorf("RotationCycles = %d, want %d", got, 3*hop)
	}
	if r.HopCycles(0) != 0 || r.RotationCycles(-5) != 0 {
		t.Error("non-positive bytes must cost zero cycles")
	}
}

func TestCrossbar(t *testing.T) {
	if _, err := NewCrossbar(0); err == nil {
		t.Error("NewCrossbar(0) should fail")
	}
	x, err := NewCrossbar(4)
	if err != nil {
		t.Fatal(err)
	}
	base := LoadCyclesAt(16000, x.BytesPerCycle, 1)
	if base <= 0 {
		t.Fatal("expected positive load time")
	}
	// Conflict degree 2 halves the effective bandwidth.
	if got := LoadCyclesAt(16000, x.BytesPerCycle, 2); got < 2*base-1 || got > 2*base+1 {
		t.Errorf("conflicted load = %d, want ~%d", got, 2*base)
	}
	// Degenerate inputs.
	if LoadCyclesAt(0, x.BytesPerCycle, 1) != 0 {
		t.Error("zero bytes should be free")
	}
	if LoadCyclesAt(100, x.BytesPerCycle, 0) != LoadCyclesAt(100, x.BytesPerCycle, 1) {
		t.Error("conflict < 1 should clamp to 1")
	}
}

// Property: hop time is monotone in bytes and covers the bandwidth bound.
func TestHopCyclesProperty(t *testing.T) {
	r, _ := NewRing(8)
	f := func(b uint32) bool {
		bytes := int64(b % 1_000_000)
		c := r.HopCycles(bytes)
		if bytes == 0 {
			return c == 0
		}
		lower := float64(bytes) / r.BytesPerCycle
		return float64(c) >= lower && float64(c) < lower+1.0001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// --- degenerate fabrics: exact hop counts (ISSUE 5 satellite) ---

func TestRingDegenerateExactHops(t *testing.T) {
	cases := []struct {
		n          int
		rounds     int
		totalHop   int
		trafficPer int64 // RotationTrafficBytes(1000)
	}{
		{1, 0, 1, 0},
		{2, 1, 2, 2000},
		{3, 2, 3, 6000},
		{5, 4, 5, 20000},
		{7, 6, 7, 42000},
		{8, 7, 8, 56000},
	}
	for _, c := range cases {
		r, err := NewRing(c.n)
		if err != nil {
			t.Fatalf("NewRing(%d): %v", c.n, err)
		}
		if r.Rounds() != c.rounds {
			t.Errorf("n=%d Rounds = %d, want %d", c.n, r.Rounds(), c.rounds)
		}
		if r.MaxHop() != 1 {
			t.Errorf("n=%d MaxHop = %d, want 1 on a healthy ring", c.n, r.MaxHop())
		}
		if r.TotalHop() != c.totalHop {
			t.Errorf("n=%d TotalHop = %d, want %d", c.n, r.TotalHop(), c.totalHop)
		}
		if got := r.RotationTrafficBytes(1000); got != c.trafficPer {
			t.Errorf("n=%d RotationTrafficBytes(1000) = %d, want %d", c.n, got, c.trafficPer)
		}
		if r.Degraded() {
			t.Errorf("n=%d healthy ring must not report Degraded", c.n)
		}
		num, den := r.D2DScale()
		if num != den {
			t.Errorf("n=%d healthy D2DScale = %d/%d, want 1", c.n, num, den)
		}
		if r.RoundSyncCycles() != HopLatencyCycles {
			t.Errorf("n=%d RoundSyncCycles = %d, want %d", c.n, r.RoundSyncCycles(), HopLatencyCycles)
		}
	}
}

func TestNewRingUnderZeroMaskIdentity(t *testing.T) {
	var zero hardware.FaultMask
	for n := 1; n <= 8; n++ {
		a, err := NewRingUnder(n, zero)
		if err != nil {
			t.Fatalf("NewRingUnder(%d, zero): %v", n, err)
		}
		b, _ := NewRing(n)
		if a.Chiplets != b.Chiplets || a.Degraded() ||
			a.MaxHop() != b.MaxHop() || a.TotalHop() != b.TotalHop() ||
			a.RotationTrafficBytes(777) != b.RotationTrafficBytes(777) ||
			a.HopCycles(777) != b.HopCycles(777) {
			t.Errorf("n=%d zero-mask ring differs from healthy ring", n)
		}
	}
}

func TestNewRingUnderReroute(t *testing.T) {
	// 4 positions, chiplet 3 dead: alive {0,1,2}, logical hops 0->1 (1 link),
	// 1->2 (1 link), 2->0 (2 links through the bypassed position).
	mask := hardware.FaultMask{Chiplets: 4, Dead: 1 << 3}
	r, err := NewRingUnder(3, mask)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Degraded() {
		t.Fatal("ring with a bypassed position must report Degraded")
	}
	if r.MaxHop() != 2 {
		t.Errorf("MaxHop = %d, want 2", r.MaxHop())
	}
	if r.TotalHop() != 4 {
		t.Errorf("TotalHop = %d, want 4 (one full physical revolution)", r.TotalHop())
	}
	num, den := r.D2DScale()
	if num != 4 || den != 3 {
		t.Errorf("D2DScale = %d/%d, want 4/3", num, den)
	}
	if r.RoundSyncCycles() != 2*HopLatencyCycles {
		t.Errorf("RoundSyncCycles = %d, want %d", r.RoundSyncCycles(), 2*HopLatencyCycles)
	}
	// Rounds stay logical: 2 survivors' worth of rotation among 3 chiplets.
	if r.Rounds() != 2 {
		t.Errorf("Rounds = %d, want 2", r.Rounds())
	}
	// Physical link bytes: 2 rounds x chunk x TotalHop.
	if got := r.RotationTrafficBytes(1000); got != 2*1000*4 {
		t.Errorf("RotationTrafficBytes = %d, want 8000", got)
	}
	// The longest detour gates the synchronized hop time.
	healthy, _ := NewRing(3)
	if r.HopCycles(1000) != 2*healthy.HopCycles(1000) {
		t.Errorf("HopCycles = %d, want %d", r.HopCycles(1000), 2*healthy.HopCycles(1000))
	}
}

func TestNewRingUnderAlternating(t *testing.T) {
	// 8 positions, every odd chiplet dead: 4 survivors, every hop 2 links.
	mask := hardware.FaultMask{Chiplets: 8, Dead: 0b10101010}
	r, err := NewRingUnder(4, mask)
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxHop() != 2 || r.TotalHop() != 8 {
		t.Errorf("MaxHop/TotalHop = %d/%d, want 2/8", r.MaxHop(), r.TotalHop())
	}
	if got := r.RotationTrafficBytes(500); got != 3*500*8 {
		t.Errorf("RotationTrafficBytes = %d, want 12000", got)
	}
}

func TestNewRingUnderSingleSurvivor(t *testing.T) {
	mask := hardware.FaultMask{Chiplets: 4, Dead: 0b1110}
	r, err := NewRingUnder(1, mask)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rounds() != 0 || r.RotationCycles(1000) != 0 || r.RotationTrafficBytes(1000) != 0 {
		t.Error("a single survivor must not rotate")
	}
	if r.Degraded() {
		t.Error("single survivor has no hops to detour")
	}
}

func TestNewRingUnderMismatch(t *testing.T) {
	mask := hardware.FaultMask{Chiplets: 4, Dead: 1 << 0}
	if _, err := NewRingUnder(4, mask); err == nil {
		t.Error("survivor-count mismatch must fail")
	}
	bad := hardware.FaultMask{Chiplets: 9, Dead: 1}
	if _, err := NewRingUnder(8, bad); err == nil {
		t.Error("mask past 8 positions must fail")
	}
}
