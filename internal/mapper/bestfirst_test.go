package mapper

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nnbaton/internal/c3p"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapping"
	"nnbaton/internal/workload"
)

// stageScore is the score evalCell stage-prunes a temporal variant on: its
// exact energy at hw's buffer sizes.
func (s *search) stageScore(m *mapping.Mapping, sh *mapping.Shape) float64 {
	l, hw := &s.l, &s.hw
	var fixed, tr c3p.Traffic
	c3p.FixedTraffic(&fixed, l, hw, m, sh)
	c3p.StageTraffic(&tr, &c3p.Scratch{}, l, hw, m, sh, &fixed)
	return s.fab.Energy(&tr, hw).Total()
}

// boundCell is one feasible (chiplet tile, core tile) cell of a candidate
// group, with the group's tile lists: cots[ci] and cps[pi] are its tiles.
type boundCell struct {
	st    *subtree
	g     *candGroup
	cots  []int
	ci    int
	cps   [][2]int
	pi    int
	probe mapping.Mapping
	sh    mapping.Shape
}

// ladder derives the group, subgroup and cell terms of c the way the scan
// does: the group's terms over both full tile lists, narrowed to c's
// chiplet tile (channel and planar terms recomputed, core terms kept) and
// then to c's core tile.
func (s *search) ladder(c *boundCell) [3]c3p.GroupFloorTerms {
	var group c3p.GroupFloorTerms
	s.channelTerms(&group, c.st, c.cots)
	s.planarTerms(&group, c.st, c.g)
	s.coreTerms(&group, c.g, c.cps)
	sub := group
	s.channelTerms(&sub, c.st, c.cots[c.ci:c.ci+1])
	s.planarTerms(&sub, c.st, c.g)
	cell := sub
	s.coreTerms(&cell, c.g, c.cps[c.pi:c.pi+1])
	return [3]c3p.GroupFloorTerms{group, sub, cell}
}

// forEachReachable visits every cell the scan can reach: each candidate
// group the scan's own builder (buildGroups) makes over the search's
// subtrees, crossed with its subtree's chiplet tiles and its core tiles,
// without the scan's bound pruning. c.sh is left unset, and visit must not
// keep c: it is reused for the next cell.
func (s *search) forEachReachable(visit func(c *boundCell)) {
	states := takeStates(1)
	defer releaseStates(states)
	ws := states[0]
	s.buildGroups(s.sts, ws)
	for gi := range ws.groups {
		g := &ws.groups[gi]
		st := &s.sts[g.st]
		sp := ws.cotSpan[g.st]
		cots, cps := ws.cots[sp[0]:sp[1]], ws.pairs[g.cp0:g.cp1]
		c := boundCell{st: st, g: g, cots: cots, cps: cps, probe: st.base()}
		c.probe.HOt, c.probe.WOt = g.hot, g.wot
		for c.ci = range cots {
			for c.pi = range cps {
				c.probe.COt = cots[c.ci]
				c.probe.HOc, c.probe.WOc = cps[c.pi][0], cps[c.pi][1]
				visit(&c)
			}
		}
	}
}

// forEachCell visits every feasible cell the scan can reach, with its shape.
func (s *search) forEachCell(visit func(c *boundCell)) {
	s.forEachReachable(func(c *boundCell) {
		if c.probe.FeasibleShape(&s.l, &s.hw, &c.sh) {
			visit(c)
		}
	})
}

// TestGroupBoundAdmissible pins the property the group scan is built on:
// for every candidate group, the group, subgroup and cell bounds are ≤ the
// stage score of every temporal variant of every member probe — the score
// the scan compares a materialized cell against, so a group, subgroup or
// cell skipped on its bound could never have passed the stage prune. The
// bounds price the activation refetch that no temporal order avoids at the
// hardware's buffer sizes, so they may exceed a member's infinite-buffer
// traffic floor; the rung they are held to is the member's best variant.
// Randomized over layers, hardware points and fault masks.
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
		srch.forEachCell(func(c *boundCell) {
			best := math.Inf(1)
			forEachTemporal(c.probe, c.sh, func(m mapping.Mapping) {
				best = min(best, srch.stageScore(&m, &c.sh))
			})
			for i, terms := range srch.ladder(c) {
				if b := srch.groupBound(c.st, &terms); b > best {
					t.Fatalf("%s: %s bound %.6g > best stage score %.6g of %+v",
						ctx, [...]string{"group", "subgroup", "cell"}[i], b, best, c.probe)
				}
			}
		})
	}
}

// TestActivationTermsExact pins the cell-level activation terms to the C³P
// walk they fold: at every feasible cell, the A-L1 and A-L2 terms equal the
// fewest fills that any temporal variant's analysis incurs at the
// hardware's A-L1 and A-L2 sizes. The test fails when no cell pays an
// A-L1 or no cell pays an A-L2 penalty, so it cannot pass on intrinsic
// fills alone.
func TestActivationTermsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	cm := hardware.MustCostModel()
	layers := uniqueZooLayers(64)
	trials := 20
	if testing.Short() {
		trials = 5
	}
	var a c3p.Analysis
	var sc c3p.Scratch
	var cells, al1Penalized, al2Penalized int
	for trial := 0; trial < trials; trial++ {
		l := layers[rng.Intn(len(layers))]
		hw := randomHW(rng)
		cfg := Config{KeepTop: 1}
		srch := newSearch(l, hw, cm, cfg)
		if srch == nil {
			continue
		}
		srch.forEachCell(func(c *boundCell) {
			terms := srch.ladder(c)[2]
			al1, al2 := int64(math.MaxInt64), int64(math.MaxInt64)
			forEachTemporal(c.probe, c.sh, func(m mapping.Mapping) {
				c3p.AnalyzeInto(&a, &sc, &l, &hw, &m)
				al1 = min(al1, a.AL1.Fills(int64(hw.AL1Bytes)))
				al2 = min(al2, a.AL2.Fills(int64(hw.AL2Bytes)))
			})
			if terms.AL1Min != al1 || terms.AL2Min != al2 {
				t.Fatalf("trial %d: %s/%s on %s: cell terms A-L1 %d, A-L2 %d; fewest variant fills A-L1 %d, A-L2 %d for %+v",
					trial, l.Model, l.Name, hw.Tuple(), terms.AL1Min, terms.AL2Min, al1, al2, c.probe)
			}
			cells++
			if al1 > a.AL1.Intrinsic {
				al1Penalized++
			}
			if al2 > a.AL2.Intrinsic {
				al2Penalized++
			}
		})
	}
	t.Logf("%d cells: %d A-L1-penalized, %d A-L2-penalized", cells, al1Penalized, al2Penalized)
	if al1Penalized == 0 || al2Penalized == 0 {
		t.Fatalf("no penalized cell on A-L1 (%d) or A-L2 (%d) among %d: the test compared intrinsic fills only",
			al1Penalized, al2Penalized, cells)
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
