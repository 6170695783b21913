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

// lowerBound prices a probe's best case: the C³P traffic floor (intrinsic
// fills, exact fixed terms) through the fabric's energy step — D2D scaled to
// physical bytes. The energy model is monotone in its traffic inputs, ceil
// scaling preserves component-wise ≤, and the floor under-counts nothing
// negative, so the true energy of every temporal variant of the probe is ≥
// this value. The scan no longer prices it; the test keeps it as the
// per-probe rung between the group bounds and the stage scores.
func (s *search) lowerBound(m *mapping.Mapping, sh *mapping.Shape) float64 {
	var tr c3p.Traffic
	c3p.TrafficFloor(&tr, &s.l, &s.hw, m, sh)
	return s.fab.Energy(&tr, &s.hw).Total()
}

// stageScore is the score evalCell stage-prunes a temporal variant on: its
// exact energy at hw's buffer sizes.
func (s *search) stageScore(m *mapping.Mapping, sh *mapping.Shape) float64 {
	l, hw := &s.l, &s.hw
	var fixed, tr c3p.Traffic
	c3p.FixedTraffic(&fixed, l, hw, m, sh)
	c3p.StageTraffic(&tr, &c3p.Scratch{}, l, hw, m, sh, &fixed)
	return s.fab.Energy(&tr, hw).Total()
}

// TestGroupBoundAdmissible pins the property the group scan is built on:
// for every candidate group, the group, subgroup and cell bounds are ≤ the
// exact per-probe lower bound of every member probe, and each cell bound is
// ≤ the stage score of every temporal variant of its probe — the score the
// scan compares a materialized cell against, so a cell skipped on its bound
// could never have passed the stage prune. Randomized over layers, hardware
// points and fault masks.
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
		// Drawn and discarded: the trials keep the layers and hardware they
		// sampled when this draw still chose between search objectives.
		rng.Intn(2)
		cfg := Config{KeepTop: 8}
		if rng.Intn(3) == 0 {
			cfg.Fault = randomFault(rng, hw.Chiplets)
		}
		srch := newSearch(l, hw, cm, cfg)
		if srch == nil {
			continue
		}
		ctx := fmt.Sprintf("trial %d: %s/%s on %s fault=%s",
			trial, l.Model, l.Name, hw.Tuple(), cfg.Fault)
		// groupBound of g restricted to the given tile lists, with the terms
		// composed from the same helpers the scan uses.
		groupBound := func(st *subtree, g *candGroup, cots []int, cps [][2]int) float64 {
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
				g := candGroup{hot: hot, wot: wot,
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
						// bound the scan prices one probe with.
						cell := groupBound(&st, &g, cots[ci:ci+1], cps[pi:pi+1])
						if cell > fl {
							t.Fatalf("%s: cell bound %.6g > member floor %.6g for %+v",
								ctx, cell, fl, probe)
						}
						forEachTemporal(probe, sh, func(m mapping.Mapping) {
							if stage := srch.stageScore(&m, &sh); cell > stage {
								t.Fatalf("%s: cell bound %.6g > stage score %.6g for %+v",
									ctx, cell, stage, m)
							}
						})
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
// where multiple candidates share the optimal cost, the bound-ordered parallel
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
		cfg := Config{KeepTop: 8}
		want := SearchExhaustive(l, hw, cm, cfg)
		if len(want) == 0 {
			continue
		}
		bestEnergy := want[0].Energy.Total()
		ties := 0
		for _, o := range want {
			if o.Energy.Total() == bestEnergy {
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
			requireSameOptions(t, ctx, want, got)
		}
	}
	if !sawTie {
		t.Fatal("no trial produced a shared-optimal-cost tie; the audit tested nothing")
	}
}
