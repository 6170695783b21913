package c3p

import (
	"fmt"
	"math/rand"
	"testing"

	"nnbaton/internal/hardware"
	"nnbaton/internal/mapping"
	"nnbaton/internal/workload"
)

// stageLayers returns a sample of zoo layers plus random ones that stress
// the walks' edge cases: grouped and depthwise convolutions, R·S = 1
// kernels (no Cc₀ point) and strided halos.
func stageLayers(rng *rand.Rand) []workload.Layer {
	var out []workload.Layer
	for _, m := range workload.Models(64) {
		for i := 0; i < len(m.Layers); i += 3 {
			out = append(out, m.Layers[i])
		}
	}
	for i := 0; i < 24; i++ {
		k := []int{1, 1, 3, 5}[rng.Intn(4)]
		ci := []int{3, 8, 16, 32, 64}[rng.Intn(5)]
		co := []int{8, 16, 24, 64}[rng.Intn(4)]
		groups := 1
		switch rng.Intn(3) {
		case 0: // depthwise
			co, groups = ci, ci
		case 1: // grouped, when the channels allow it
			if g := []int{2, 4}[rng.Intn(2)]; ci%g == 0 && co%g == 0 {
				groups = g
			}
		}
		stride := 1 + rng.Intn(2)
		out = append(out, workload.Layer{
			Model: "rand", Name: fmt.Sprintf("l%d", i),
			HO: 1 + rng.Intn(28), WO: 1 + rng.Intn(28), CO: co, CI: ci,
			R: k, S: k, StrideH: stride, StrideW: stride, PadH: k / 2, PadW: k / 2, Groups: groups,
		})
	}
	return out
}

// stageHW draws a compute allocation around the case-study point.
func stageHW(rng *rand.Rand) hardware.Config {
	hw := hardware.CaseStudy()
	hw.Chiplets = []int{1, 2, 4, 8}[rng.Intn(4)]
	hw.Cores = []int{4, 8, 16}[rng.Intn(3)]
	hw.Lanes = []int{4, 8, 16}[rng.Intn(3)]
	hw.Vector = []int{8, 16}[rng.Intn(2)]
	return hw
}

// stageSplits returns one probe template per package split (C and every P
// pattern) × chiplet split (C, every P pattern and every H factorization),
// with every tile still unset.
func stageSplits(hw hardware.Config) []mapping.Mapping {
	pkgs := []mapping.Mapping{{PackageSpatial: mapping.SpatialC}}
	for _, p := range mapping.GridPatterns(nil, hw.Chiplets) {
		pkgs = append(pkgs, mapping.Mapping{PackageSpatial: mapping.SpatialP, PackagePattern: p})
	}
	type chip struct {
		kind   mapping.Spatial
		csplit int
		pat    mapping.Pattern
	}
	chips := []chip{{mapping.SpatialC, hw.Cores, mapping.Pattern{Rows: 1, Cols: 1}}}
	for _, p := range mapping.GridPatterns(nil, hw.Cores) {
		chips = append(chips, chip{mapping.SpatialP, 1, p})
	}
	for cs := 2; cs < hw.Cores; cs++ {
		if hw.Cores%cs == 0 {
			for _, p := range mapping.GridPatterns(nil, hw.Cores/cs) {
				chips = append(chips, chip{mapping.SpatialH, cs, p})
			}
		}
	}
	var out []mapping.Mapping
	for _, p := range pkgs {
		for _, c := range chips {
			m := p
			m.ChipletSpatial, m.ChipletCSplit, m.ChipletPattern = c.kind, c.csplit, c.pat
			out = append(out, m)
		}
	}
	return out
}

// randomTiles sets random tile sizes on the template and reports whether a
// structurally feasible mapping came out within a few draws.
func randomTiles(rng *rand.Rand, l *workload.Layer, hw *hardware.Config, m *mapping.Mapping) bool {
	for try := 0; try < 8; try++ {
		s := m.Shape(l, hw)
		m.HOt, m.WOt, m.COt = 1+rng.Intn(s.HOp), 1+rng.Intn(s.WOp), 1+rng.Intn(s.COp)
		s = m.Shape(l, hw)
		m.HOc, m.WOc = 1+rng.Intn(max(1, min(s.HOs, 8))), 1+rng.Intn(max(1, min(s.WOs, 8)))
		if m.StructurallyFeasible(l, hw) {
			return true
		}
	}
	return false
}

// TestStageTrafficMatchesAnalysis holds StageTraffic — the search's stage
// pricing, which builds no Analysis — to AnalyzeInto followed by Traffic,
// field for field. Every package and chiplet split, rotation on and off and
// every temporal pair run on zoo and random layers, each at the hardware's
// own buffers and with one buffer set exactly at, one below and one above
// each of its critical capacities (the A-L1 Cc₀ point included), where a
// strict comparison turned non-strict would show.
func TestStageTrafficMatchesAnalysis(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	layers := stageLayers(rng)
	trials := 96
	if testing.Short() {
		trials = 24
	}
	temporals := []mapping.Temporal{mapping.ChannelPriority, mapping.PlanePriority}
	var (
		a             Analysis
		sc, stageSc   Scratch
		checked       int
		atCapacity    [3]int // exact-capacity probes per buffer: A-L1, W-L1, A-L2
		innerCc0Exact int
	)
	check := func(ctx string, l *workload.Layer, hw hardware.Config, m *mapping.Mapping) {
		AnalyzeInto(&a, &sc, l, &hw, m)
		want := a.Traffic()
		s := m.Shape(l, &hw)
		var fixed, got Traffic
		FixedTraffic(&fixed, l, &hw, m, &s)
		StageTraffic(&got, &stageSc, l, &hw, m, &s, &fixed)
		if got != want {
			t.Fatalf("%s: al1=%d wl1=%d al2=%d %v:\nstage    %+v\nanalysis %+v",
				ctx, hw.AL1Bytes, hw.WL1Bytes, hw.AL2Bytes, *m, got, want)
		}
		checked++
	}
	for trial := 0; trial < trials; trial++ {
		l := layers[rng.Intn(len(layers))]
		hw := stageHW(rng)
		if hw.Validate() != nil {
			continue
		}
		for _, tmpl := range stageSplits(hw) {
			for _, rotate := range []bool{true, false} {
				m := tmpl
				m.Rotate = rotate
				if !randomTiles(rng, &l, &hw, &m) {
					continue
				}
				for _, pt := range temporals {
					for _, ct := range temporals {
						m.PackageTemporal, m.ChipletTemporal = pt, ct
						ctx := fmt.Sprintf("trial %d %s/%s on %s", trial, l.Model, l.Name, hw.Tuple())
						check(ctx, &l, hw, &m)
						// The base analysis fixes the critical capacities; it
						// does not depend on the buffer sizes.
						AnalyzeInto(&a, &sc, &l, &hw, &m)
						al1 := append([]Threshold(nil), a.AL1.Thresholds...)
						wl1 := append([]Threshold(nil), a.WL1.Thresholds...)
						al2 := append([]Threshold(nil), a.AL2.Thresholds...)
						share := int64(a.Shape.WeightShareCores)
						for i, th := range al1 {
							for d := int64(-1); d <= 1; d++ {
								if h := hw; th.Capacity+d > 0 {
									h.AL1Bytes = int(th.Capacity + d)
									check(ctx, &l, h, &m)
								}
							}
							atCapacity[0]++
							if i == 0 && l.R*l.S > 1 {
								innerCc0Exact++
							}
						}
						for _, th := range wl1 {
							// The W-L1 capacity is the pool WL1Bytes × share:
							// bracket the threshold by whole per-core sizes,
							// which hit it exactly when share divides it.
							lo := th.Capacity / share
							for _, v := range []int64{lo - 1, lo, lo + 1, lo + 2} {
								if h := hw; v > 0 {
									h.WL1Bytes = int(v)
									check(ctx, &l, h, &m)
									if v*share == th.Capacity {
										atCapacity[1]++
									}
								}
							}
						}
						for _, th := range al2 {
							for d := int64(-1); d <= 1; d++ {
								if h := hw; th.Capacity+d > 0 {
									h.AL2Bytes = int(th.Capacity + d)
									check(ctx, &l, h, &m)
								}
							}
							atCapacity[2]++
						}
					}
				}
			}
		}
	}
	t.Logf("%d comparisons; exact-capacity probes A-L1 %d (Cc0 %d), W-L1 %d, A-L2 %d",
		checked, atCapacity[0], innerCc0Exact, atCapacity[1], atCapacity[2])
	if innerCc0Exact == 0 || atCapacity[0] == 0 || atCapacity[1] == 0 || atCapacity[2] == 0 {
		t.Fatalf("a buffer was never probed at a critical capacity: A-L1 %d (Cc0 %d), W-L1 %d, A-L2 %d",
			atCapacity[0], innerCc0Exact, atCapacity[1], atCapacity[2])
	}
}

// TestAxisPartsSplitTrafficAt holds the per-axis parts explore prices its
// memory grid from to the record they split: at each buffer size on both
// sides of every critical capacity, the fixed part plus the W-L1, A-L2 and
// A-L1 parts equals TrafficAt field for field, and their die-to-die bytes,
// scaled part by part by a ratio that rounds, add up to the record's.
func TestAxisPartsSplitTrafficAt(t *testing.T) {
	rng := rand.New(rand.NewSource(20261021))
	layers := stageLayers(rng)
	var sc Scratch
	checked, d2d := 0, 0
	for trial := 0; trial < 48; trial++ {
		l := layers[rng.Intn(len(layers))]
		hw := stageHW(rng)
		if hw.Validate() != nil {
			continue
		}
		for _, tmpl := range stageSplits(hw) {
			for _, rotate := range []bool{true, false} {
				m := tmpl
				m.Rotate = rotate
				if !randomTiles(rng, &l, &hw, &m) {
					continue
				}
				var a Analysis
				AnalyzeInto(&a, &sc, &l, &hw, &m)
				share := int64(a.Shape.WeightShareCores)
				al1s := capacities(nil, hw.AL1Bytes, a.AL1.Thresholds)
				al2s := capacities(nil, hw.AL2Bytes, a.AL2.Thresholds)
				var wl1s []int64
				for _, pool := range capacities(nil, hw.WL1Bytes*int(share), a.WL1.Thresholds) {
					wl1s = append(wl1s, pool/share, pool/share+1)
				}
				for _, al1 := range al1s {
					for _, wl1 := range wl1s {
						for _, al2 := range al2s {
							want := a.TrafficAt(int(al1), int(wl1), int(al2))
							parts := []Traffic{a.Fixed(), a.WL1Part(int(wl1)), a.AL2Part(int(al2)), a.AL1Part(int(al1))}
							var got Traffic
							var scaled int64
							for _, p := range parts {
								got = got.Add(p)
								scaled += p.D2DBytesScaled(11, 8)
							}
							if got != want || scaled != want.D2DBytesScaled(11, 8) {
								t.Fatalf("%s/%s %v at al1=%d wl1=%d al2=%d: parts %+v sum to %+v, %d scaled die-to-die bytes; TrafficAt %+v, %d",
									l.Model, l.Name, m, al1, wl1, al2, parts, got, scaled, want, want.D2DBytesScaled(11, 8))
							}
							if want.D2DBytes() > 0 {
								d2d++
							}
							checked++
						}
					}
				}
			}
		}
	}
	if checked == 0 || d2d == 0 {
		t.Fatalf("%d comparisons, %d with die-to-die bytes; want both nonzero", checked, d2d)
	}
}
