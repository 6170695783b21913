package mapper

import (
	"fmt"
	"math/rand"
	"testing"

	"nnbaton/internal/c3p"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapping"
	"nnbaton/internal/workload"
)

// TestGroupBoundAdmissible pins the property the best-first frontier is built
// on: for every candidate group, the group bound is ≤ the exact per-probe
// lower bound of every member probe (and transitively ≤ every member's true
// score, which lowerBound's own admissibility covers). Randomized over layers,
// hardware points, objectives and fault masks.
func TestGroupBoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(20260809))
	cm := hardware.MustCostModel()
	layers := uniqueZooLayers(64)
	trials := 20
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		l := layers[rng.Intn(len(layers))]
		hw := randomHW(rng)
		if hw.Validate() != nil {
			continue
		}
		cfg := Config{
			Objective: []Objective{MinEnergy, MinEDP}[rng.Intn(2)],
			KeepTop:   8,
		}
		if rng.Intn(3) == 0 {
			cfg.Fault = randomFault(rng, hw.Chiplets)
		}
		srch := newSearch(l, hw, cm, cfg)
		if srch == nil {
			continue
		}
		ctx := fmt.Sprintf("trial %d: %s/%s on %s obj=%v fault=%s",
			trial, l.Model, l.Name, hw.Tuple(), cfg.Objective, cfg.Fault)
		// groupBound of g restricted to the given tile lists, with the terms
		// composed from the same helpers the frontier uses.
		groupBound := func(st *subtree, g *bfGroup, cots []int, cps [][2]int) float64 {
			var terms c3p.GroupFloorTerms
			srch.channelTerms(&terms, st, cots)
			srch.planarTerms(&terms, st, g)
			srch.coreTerms(&terms, g, cps)
			return srch.groupBound(st, &terms)
		}
		for _, st := range subtrees(l, hw, cfg) {
			var cots []int
			for _, cot := range tileCandidates(nil, st.cop, st.cop) {
				if cot >= st.cs.csplit {
					cots = append(cots, cot)
				}
			}
			if len(cots) == 0 {
				continue
			}
			for _, pp := range planarPairs(nil, st.hop, st.wop) {
				hot, wot := pp[0], pp[1]
				if st.cs.pattern.Rows > hot || st.cs.pattern.Cols > wot {
					continue
				}
				g := bfGroup{hot: hot, wot: wot,
					hs: ceilDiv(hot, st.cs.pattern.Rows), ws: ceilDiv(wot, st.cs.pattern.Cols)}
				cps := coreTilePairs(nil, &l, &hw, g.hs, g.ws)
				if len(cps) == 0 {
					continue
				}
				gb := groupBound(&st, &g, cots, cps)
				for ci, cot := range cots {
					sub := groupBound(&st, &g, cots[ci:ci+1], cps)
					for pi, cp := range cps {
						probe := mapping.Mapping{
							PackageSpatial: st.ps.kind, PackagePattern: st.ps.pattern, Rotate: st.rotate,
							ChipletSpatial: st.cs.kind, ChipletCSplit: st.cs.csplit, ChipletPattern: st.cs.pattern,
							COt: cot, HOt: hot, WOt: wot, HOc: cp[0], WOc: cp[1],
						}
						if !probe.Feasible(l, hw) {
							continue
						}
						sh := probe.Shape(&l, &hw)
						fl := srch.lowerBound(&probe, &sh)
						if gb > fl {
							t.Fatalf("%s: group bound %.6g > member floor %.6g for %+v",
								ctx, gb, fl, probe)
						}
						if sub > fl {
							t.Fatalf("%s: subgroup bound %.6g > member floor %.6g for %+v",
								ctx, sub, fl, probe)
						}
						// Cell level: both tile axes fixed — the singleton
						// bound the frontier prices one probe with.
						if cell := groupBound(&st, &g, cots[ci:ci+1], cps[pi:pi+1]); cell > fl {
							t.Fatalf("%s: cell bound %.6g > member floor %.6g for %+v",
								ctx, cell, fl, probe)
						}
					}
				}
			}
		}
	}
}

// tieHW builds a hardware point whose cost model degeneracies make distinct
// mappings score identically: with a single chiplet there is no D2D term, and
// symmetric planar splits of a square layer produce mirror-image mappings
// with equal traffic in every component.
func tieHW() hardware.Config {
	hw := hardware.CaseStudy()
	hw.Chiplets = 1
	hw.Cores = 4
	return hw
}

// TestSearchDeterministicOnTies is the determinism audit: on layers/configs
// where multiple candidates share the optimal cost, the best-first parallel
// search, the same search serially, and the exhaustive reference must return
// the identical mapping — the (score, mapping.Compare) tie-break, not
// evaluation order, decides. Square layers on a symmetric hardware point
// guarantee mirror-mapping ties exist; the test first asserts a tie is
// actually present so it cannot silently degrade into a non-tie check. Run
// under -race in CI (make race) to also catch ordering races.
func TestSearchDeterministicOnTies(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	cm := hardware.MustCostModel()
	hw := tieHW()
	trials := 10
	if testing.Short() {
		trials = 3
	}
	sawTie := false
	for trial := 0; trial < trials; trial++ {
		// Square geometry with symmetric channels: HO == WO and R == S make
		// (h, w)-mirrored mappings cost-identical.
		size := []int{7, 8, 14, 16, 28}[rng.Intn(5)]
		l := workload.Layer{
			Name: fmt.Sprintf("tie%d", trial), Model: "tie-audit",
			HO: size, WO: size, CO: 64, CI: 64, R: 3, S: 3,
			StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1,
		}
		if l.Validate() != nil {
			t.Fatalf("trial %d: invalid tie layer: %v", trial, l)
		}
		cfg := Config{Objective: MinEnergy, KeepTop: 8}
		want := SearchExhaustive(l, hw, cm, cfg)
		if len(want) == 0 {
			continue
		}
		bestScore := want[0].Score(cfg.Objective)
		ties := 0
		for _, o := range want {
			if o.Score(cfg.Objective) == bestScore {
				ties++
			}
		}
		if ties > 1 {
			sawTie = true
		}
		for _, w := range []int{1, 2, 8} {
			cfg.Workers = w
			got := SearchAll(l, hw, cm, cfg)
			ctx := fmt.Sprintf("trial %d size=%d workers=%d (ties=%d)", trial, size, w, ties)
			requireSameOptions(t, ctx, want, got, cfg.Objective)
		}
	}
	if !sawTie {
		t.Fatal("no trial produced a shared-optimal-cost tie; the audit tested nothing")
	}
}
