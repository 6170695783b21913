package hardware

import (
	"strings"
	"testing"
)

func TestFaultMaskZero(t *testing.T) {
	var m FaultMask
	if !m.IsZero() {
		t.Fatal("zero value must be the healthy mask")
	}
	if m.String() != "healthy" {
		t.Errorf("String = %q, want healthy", m)
	}
	if m.FreqScale() != 1.0 {
		t.Errorf("FreqScale = %v, want 1", m.FreqScale())
	}
	if m.FailedUnits() != 0 {
		t.Errorf("FailedUnits = %d, want 0", m.FailedUnits())
	}
	c := CaseStudy()
	if err := m.Validate(c); err != nil {
		t.Errorf("zero mask must validate: %v", err)
	}
	f, err := c.Degrade(m)
	if err != nil {
		t.Fatal(err)
	}
	if f.AliveChiplets() != c.Chiplets || f.TotalMACs() != c.TotalMACs() {
		t.Errorf("identity fabric: alive=%d macs=%d, want %d/%d",
			f.AliveChiplets(), f.TotalMACs(), c.Chiplets, c.TotalMACs())
	}
	envs := f.Envelopes()
	if len(envs) != 1 || envs[0].HW != c || !envs[0].Mask.IsZero() {
		t.Errorf("healthy fabric must yield the single identity envelope, got %v", envs)
	}
}

func TestParseFaultMaskRoundTrip(t *testing.T) {
	c := CaseStudy() // 4 chiplets, 8 cores, 8 lanes
	for _, spec := range []string{
		"healthy",
		"chiplet2",
		"chiplet0,chiplet3",
		"cores3@1",
		"lanes2@0",
		"freq80%",
		"chiplet2,cores3@1,lanes1@0,freq90%",
	} {
		m, err := ParseFaultMask(spec, c)
		if err != nil {
			t.Fatalf("ParseFaultMask(%q): %v", spec, err)
		}
		back, err := ParseFaultMask(m.String(), c)
		if err != nil {
			t.Fatalf("re-parse %q: %v", m.String(), err)
		}
		if back != m {
			t.Errorf("round trip %q -> %q -> %+v != %+v", spec, m.String(), back, m)
		}
	}
}

func TestParseFaultMaskErrors(t *testing.T) {
	c := CaseStudy()
	for _, spec := range []string{
		"chiplet9",                            // index past package
		"chiplet-1",                           // negative index
		"cores9@0",                            // more dead cores than cores
		"cores0@0",                            // zero count
		"cores3",                              // missing @chiplet
		"lanes8@0",                            // bins every lane
		"freq0%",                              // stopped clock
		"freq45%",                             // not a multiple of 10
		"bogus",                               // unknown term
		"chiplet0,chiplet1,chiplet2,chiplet3", // no survivor
		"chiplet0,,chiplet1",                  // empty term
	} {
		if _, err := ParseFaultMask(spec, c); err == nil {
			t.Errorf("ParseFaultMask(%q) should fail", spec)
		}
	}
}

func TestFaultMaskCanonical(t *testing.T) {
	c := CaseStudy()
	// All cores dead on a chiplet canonicalizes to a dead chiplet with no
	// per-chiplet entries.
	m := FaultMask{Chiplets: 4}
	m.DeadCores[2] = uint8(c.Cores)
	m.BinnedLanes[2] = 3
	got := m.Canonical(c)
	want := FaultMask{Chiplets: 4, Dead: 1 << 2}
	if got != want {
		t.Errorf("Canonical(all cores dead) = %+v, want %+v", got, want)
	}
	// Entries on an explicitly dead chiplet are dropped.
	m = FaultMask{Chiplets: 4, Dead: 1 << 1}
	m.DeadCores[1] = 3
	m.BinnedLanes[1] = 2
	if got := m.Canonical(c); got != (FaultMask{Chiplets: 4, Dead: 1 << 1}) {
		t.Errorf("Canonical(entries on dead chiplet) = %+v", got)
	}
	// A mask describing no degradation collapses to the zero mask.
	m = FaultMask{Chiplets: 4}
	if got := m.Canonical(c); !got.IsZero() {
		t.Errorf("Canonical(no-op mask) = %+v, want zero", got)
	}
	// Canonicalization is idempotent.
	m, _ = ParseFaultMask("chiplet1,cores2@0,freq90%", c)
	if m.Canonical(c) != m {
		t.Errorf("Canonical not idempotent on %v", m)
	}
}

func TestDegradeCapability(t *testing.T) {
	c := CaseStudy() // 4x8x8x8 = 2048 MACs
	m, err := ParseFaultMask("chiplet3,cores2@0,lanes4@1", c)
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.Degrade(m)
	if err != nil {
		t.Fatal(err)
	}
	if f.AliveChiplets() != 3 {
		t.Errorf("AliveChiplets = %d, want 3", f.AliveChiplets())
	}
	wantMACs := (c.Cores-2)*c.Lanes*c.Vector + // chiplet 0: 2 dead cores
		c.Cores*(c.Lanes-4)*c.Vector + // chiplet 1: 4 lanes binned
		c.Cores*c.Lanes*c.Vector // chiplet 2 intact; chiplet 3 dead
	if f.TotalMACs() != wantMACs {
		t.Errorf("TotalMACs = %d, want %d", f.TotalMACs(), wantMACs)
	}
	if f.Cores[3] != 0 || f.Lanes[3] != 0 {
		t.Errorf("dead chiplet must have no capability, got cores=%d lanes=%d", f.Cores[3], f.Lanes[3])
	}
	if m.FailedUnits() != 1+2+4 {
		t.Errorf("FailedUnits = %d, want 7", m.FailedUnits())
	}
}

func TestEnvelopesTiers(t *testing.T) {
	c := CaseStudy()
	// Chiplet 3 dead, chiplet 0 lost two cores: two capability tiers.
	m, err := ParseFaultMask("chiplet3,cores2@0", c)
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.Degrade(m)
	if err != nil {
		t.Fatal(err)
	}
	envs := f.Envelopes()
	if len(envs) != 2 {
		t.Fatalf("want 2 envelopes, got %d: %v", len(envs), envs)
	}
	// Most capable by total MACs first: all three survivors clamped to
	// 6 cores (3x6 = 1152 MACs) beats the two full chiplets (2x8 = 1024).
	top := envs[0]
	if top.HW.Chiplets != 3 || top.HW.Cores != c.Cores-2 {
		t.Errorf("top envelope = %v, want 3 chiplets x %d cores", top.HW, c.Cores-2)
	}
	// The full-core tier excludes the degraded chiplet 0.
	low := envs[1]
	if low.HW.Chiplets != 2 || low.HW.Cores != c.Cores {
		t.Errorf("low envelope = %v, want 2 chiplets x %d cores", low.HW, c.Cores)
	}
	if envs[0].HW.TotalMACs() < envs[1].HW.TotalMACs() {
		t.Error("envelopes must be sorted most capable first")
	}
	// Every envelope mask carries only ring-relevant degradation.
	for _, e := range envs {
		if e.Mask.IsZero() {
			continue
		}
		if e.Mask.DeadCores != ([MaxChiplets]uint8{}) || e.Mask.BinnedLanes != ([MaxChiplets]uint8{}) || e.Mask.FreqTenths != 0 {
			t.Errorf("envelope mask %+v must only carry dead-position bits", e.Mask)
		}
	}
}

func TestEnvelopeGapFreeAliasesHealthy(t *testing.T) {
	c := CaseStudy()
	// Uniform core loss everywhere: the fabric is a smaller but gap-free
	// uniform package, so its single envelope must carry the zero mask and
	// share cache keys with a genuinely healthy config of the same shape.
	m, err := ParseFaultMask("cores2@0,cores2@1,cores2@2,cores2@3", c)
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.Degrade(m)
	if err != nil {
		t.Fatal(err)
	}
	envs := f.Envelopes()
	if len(envs) != 1 {
		t.Fatalf("uniform degradation must yield one envelope, got %v", envs)
	}
	if !envs[0].Mask.IsZero() {
		t.Errorf("gap-free envelope mask = %v, want zero", envs[0].Mask)
	}
	if envs[0].HW.Cores != c.Cores-2 || envs[0].HW.Chiplets != c.Chiplets {
		t.Errorf("envelope HW = %v", envs[0].HW)
	}
}

func TestDegradeRejectsBadMask(t *testing.T) {
	c := CaseStudy()
	m := FaultMask{Chiplets: 7} // wrong position count
	m.DeadCores[0] = 1
	if _, err := c.Degrade(m); err == nil {
		t.Error("Degrade must reject a mask with the wrong chiplet count")
	}
	m = FaultMask{Chiplets: 4, Dead: 0b1111}
	if _, err := c.Degrade(m); err == nil {
		t.Error("Degrade must reject a mask with no survivor")
	}
	m = FaultMask{Chiplets: 4, FreqTenths: 10}
	if _, err := c.Degrade(m); err == nil {
		t.Error("Degrade must reject a stopped clock")
	}
	if err := (FaultMask{Chiplets: 4, Dead: 1 << 5}).Validate(c); err == nil ||
		!strings.Contains(err.Error(), "past position") {
		t.Error("Validate must reject dead bits past the package")
	}
}
