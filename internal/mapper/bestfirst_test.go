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
// group, with the group's tile rows: cots[ci] and cps[pi] are its tiles.
type boundCell struct {
	st    *subtree
	g     *candGroup
	cots  []chipTile
	ci    int
	cps   []coreTile
	pi    int
	probe mapping.Mapping
	sh    mapping.Shape
}

// floorTerms are the shape-product terms of one bound, each minimized
// independently over a candidate set: the channel trips C1, C2, their
// product and the O-L1 channel product C1·C2·activeLanes, the package
// planar trips H1·W1, the chiplet planar trips H2·W2, the planar coverage
// (H2·HOc)·(W2·WOc), and the A-L2 and A-L1 fill floors.
type floorTerms struct {
	C1Min, C2Min, C12Min, OLChanMin int64
	H1W1, H2W2Min, PlanarCovMin     int64
	AL2Min, AL1Min                  int64
}

// ladder returns the group, subgroup and cell terms of c exactly as the
// scan passes them to groupBound and cellBound from the tables buildGroups
// stored: the group's coarse terms, narrowed to c's chiplet tile (channel
// terms and A-L2 fills exact, core terms kept) and then to c's core tile.
func ladder(c *boundCell) [3]floorTerms {
	g, r, ct := c.g, &c.cots[c.ci], &c.cps[c.pi]
	at := func(ch *chipTile) floorTerms {
		return floorTerms{C1Min: ch.c1, C2Min: ch.c2, C12Min: ch.c12, OLChanMin: ch.olChans,
			H1W1: g.h1w1, AL2Min: g.al2.At(ch.c1),
			H2W2Min: g.h2w2Min, PlanarCovMin: g.covMin, AL1Min: g.al1Min}
	}
	chans := channelMinima(c.cots)
	t := [3]floorTerms{at(&chans), at(r), at(r)}
	t[2].H2W2Min, t[2].PlanarCovMin, t[2].AL1Min = ct.h2w2, ct.cov, ct.al1.At(r.c2)
	return t
}

// ladderBounds returns the group, subgroup and cell bounds of c exactly as
// the scan prices them: buildGroups' coarse bound, the subgroup bound of
// c's chiplet tile and the cell bound completed from that subgroup's
// prefix.
func (s *search) ladderBounds(c *boundCell) [3]float64 {
	var p prefix
	var b [3]float64
	chans := channelMinima(c.cots)
	b[0] = s.groupBound(&p, c.st, c.g, &chans)
	b[1] = s.groupBound(&p, c.st, c.g, &c.cots[c.ci])
	b[2] = p.cellBound(&c.cots[c.ci], &c.cps[c.pi])
	return b
}

// recordBound is the reference the scan's bounds are held to: the bound of
// terms t over subtree st priced as a traffic record, assembled from t
// through the distribution branches of c3p.FixedTraffic and
// assembleTraffic term by term and totalled by the search's card. Its
// factors are recomputed from the layer and hardware, not read from the
// search's floor constants.
func (s *search) recordBound(st *subtree, t *floorTerms) float64 {
	l, hw := &s.l, &s.hw
	chiplets, cores := int64(hw.Chiplets), int64(hw.Cores)
	csplit, parts := int64(st.cs.csplit), int64(st.cs.pattern.Parts())
	pixel := mapping.CoreCycles(l, hw, 1, 1)
	var tr c3p.Traffic
	tr.MACs = l.MACs()
	tr.OL1RMW = chiplets * cores * pixel * t.H1W1 * t.OLChanMin * t.PlanarCovMin
	tr.AL1Reads = chiplets * cores * pixel * int64(hw.Vector) * mapping.LaneGroupSpan(l, hw) *
		t.H1W1 * t.C12Min * t.PlanarCovMin
	tr.WL1Reads = chiplets * int64(hw.Lanes) * int64(hw.Vector) * pixel * csplit * t.C12Min * t.H1W1 * t.H2W2Min
	tr.DRAMOutWrites = l.OutputBytes()
	tr.OL2Writes = l.OutputBytes()
	tr.OL2Reads = l.OutputBytes()

	perChipletWt := int64(hw.Lanes) * int64(l.CIPerGroup()) * int64(l.R) * int64(l.S) * t.C12Min * csplit
	tr.WL1Writes = perChipletWt * chiplets
	if st.ps.kind == mapping.SpatialP && st.rotate {
		tr.DRAMWtReads = perChipletWt
		tr.D2DWts = perChipletWt * (chiplets - 1)
	} else {
		tr.DRAMWtReads = perChipletWt * chiplets
	}
	perChipletAct := t.AL2Min
	tr.AL2Writes = perChipletAct * chiplets
	if st.ps.kind == mapping.SpatialC && st.rotate {
		tr.DRAMActReads = perChipletAct
		tr.D2DActs = perChipletAct * (chiplets - 1)
	} else {
		tr.DRAMActReads = perChipletAct * chiplets
	}
	perCore := t.AL1Min * t.C1Min * t.H1W1 * chiplets
	tr.AL1Writes = perCore * cores
	tr.AL2Reads = perCore * parts
	if st.ps.kind == mapping.SpatialC && st.rotate {
		tr.AL2Reads += perChipletAct * (chiplets - 1)
	}
	return s.card.Total(&tr)
}

// directTerms computes the terms of the probes of st with planar pair
// (hot, wot) over the chiplet tiles cots and core tiles cps from the tiles
// alone: the channel and planar minima by their trip-count divisions, and
// the activation terms by c3p.MinAL2Fills at the minimal C1 and
// c3p.MinAL1Fills at the minimal C2. It reads none of the scan's tables.
func (s *search) directTerms(st *subtree, hot, wot int, cots []int, cps [][2]int) floorTerms {
	l, hw := &s.l, &s.hw
	lanes, csplit := hw.Lanes, max(1, st.cs.csplit)
	t := floorTerms{C1Min: math.MaxInt64, C2Min: math.MaxInt64, C12Min: math.MaxInt64,
		OLChanMin: math.MaxInt64, H2W2Min: math.MaxInt64, PlanarCovMin: math.MaxInt64, AL1Min: math.MaxInt64}
	for _, cot := range cots {
		c1 := int64(ceilDiv(st.cop, cot))
		cos := ceilDiv(cot, csplit)
		c2 := int64(ceilDiv(cos, lanes))
		t.C1Min = min(t.C1Min, c1)
		t.C2Min = min(t.C2Min, c2)
		t.C12Min = min(t.C12Min, c1*c2)
		t.OLChanMin = min(t.OLChanMin, c1*c2*int64(min(lanes, cos)))
	}
	t.H1W1 = int64(ceilDiv(st.hop, hot)) * int64(ceilDiv(st.wop, wot))
	t.AL2Min = c3p.MinAL2Fills(l, hot, wot, t.H1W1, t.C1Min, int64(hw.AL2Bytes))
	hs, ws := ceilDiv(hot, st.cs.pattern.Rows), ceilDiv(wot, st.cs.pattern.Cols)
	for _, cp := range cps {
		h2, w2 := int64(ceilDiv(hs, cp[0])), int64(ceilDiv(ws, cp[1]))
		t.H2W2Min = min(t.H2W2Min, h2*w2)
		t.PlanarCovMin = min(t.PlanarCovMin, h2*int64(cp[0])*w2*int64(cp[1]))
		t.AL1Min = min(t.AL1Min,
			c3p.MinAL1Fills(l, hw, cp[0], cp[1], h2*w2, t.C2Min, int64(hw.AL1Bytes)))
	}
	return t
}

// directLadder is ladder recomputed by directTerms: the group's terms over
// both tile lists, the subgroup's channel and A-L2 terms over c's chiplet
// tile alone (its core terms the group's) and the cell's over c's two
// tiles.
func (s *search) directLadder(c *boundCell) [3]floorTerms {
	cots := make([]int, len(c.cots))
	for i, r := range c.cots {
		cots[i] = r.cot
	}
	cps := make([][2]int, len(c.cps))
	for i, ct := range c.cps {
		cps[i] = [2]int{int(ct.hoc), int(ct.woc)}
	}
	g, cot, cp := c.g, cots[c.ci:c.ci+1], cps[c.pi:c.pi+1]
	group := s.directTerms(c.st, g.hot, g.wot, cots, cps)
	one := s.directTerms(c.st, g.hot, g.wot, cot, cps)
	sub := group
	sub.C1Min, sub.C2Min, sub.C12Min, sub.OLChanMin = one.C1Min, one.C2Min, one.C12Min, one.OLChanMin
	sub.AL2Min = one.AL2Min
	return [3]floorTerms{group, sub, s.directTerms(c.st, g.hot, g.wot, cot, cp)}
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
		cots, cps := ws.cots[sp[0]:sp[1]], ws.cores[g.cp0:g.cp1]
		c := boundCell{st: st, g: g, cots: cots, cps: cps, probe: st.base()}
		c.probe.HOt, c.probe.WOt = g.hot, g.wot
		for c.ci = range cots {
			for c.pi = range cps {
				c.probe.COt = cots[c.ci].cot
				c.probe.HOc, c.probe.WOc = int(cps[c.pi].hoc), int(cps[c.pi].woc)
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
			for i, b := range srch.ladderBounds(c) {
				if b > best {
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
			terms := ladder(c)[2]
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

// TestBoundTablesExact pins the tables the scan bounds from to the terms
// they replace: at every cell the scan can reach, the group, subgroup and
// cell terms that ladder composes from buildGroups' rows equal the channel
// and planar minima recomputed from the tiles, with the activation terms
// from c3p.MinAL1Fills and c3p.MinAL2Fills (directLadder). The test fails
// when no cell's activation terms pay a channel penalty, so it cannot pass
// on penalty-free floors alone.
func TestBoundTablesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(20261020))
	cm := hardware.MustCostModel()
	layers := uniqueZooLayers(64)
	trials := 20
	if testing.Short() {
		trials = 5
	}
	var cells, al1Penalized, al2Penalized int
	for trial := 0; trial < trials; trial++ {
		l := layers[rng.Intn(len(layers))]
		hw := randomHW(rng)
		srch := newSearch(l, hw, cm, Config{KeepTop: 1})
		if srch == nil {
			continue
		}
		srch.forEachReachable(func(c *boundCell) {
			got, want := ladder(c), srch.directLadder(c)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d: %s/%s on %s: %s terms from the tables %+v, recomputed %+v for %+v",
						trial, l.Model, l.Name, hw.Tuple(), [...]string{"group", "subgroup", "cell"}[i],
						got[i], want[i], c.probe)
				}
			}
			cells++
			r, ct := &c.cots[c.ci], &c.cps[c.pi]
			if ct.al1.ChanPenalty && r.c2 > 1 {
				al1Penalized++
			}
			if c.g.al2.ChanPenalty && r.c1 > 1 {
				al2Penalized++
			}
		})
	}
	t.Logf("%d cells: %d with an A-L1 and %d with an A-L2 channel penalty", cells, al1Penalized, al2Penalized)
	if al1Penalized == 0 || al2Penalized == 0 {
		t.Fatalf("no cell paid an A-L1 (%d) or A-L2 (%d) channel penalty among %d", al1Penalized, al2Penalized, cells)
	}
}

// TestBoundPrefixMatchesRecord holds the scan's bounds to the record they
// fold: at every cell the scan can reach, the group, subgroup and cell
// bounds it prices from prefixes (ladderBounds) equal, bit for bit, the
// card's total of the traffic record assembled from the same terms
// (recordBound). Randomized over layers, hardware points on every
// topology and fault masks; the test fails unless some compared bound
// carries die-to-die bytes under a scale other than 1, so the scaled
// rounding of the prefix is exercised.
func TestBoundPrefixMatchesRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(20261021))
	cm := hardware.MustCostModel()
	layers := uniqueZooLayers(64)
	topologies := []hardware.Topology{hardware.TopoRing, hardware.TopoMesh, hardware.TopoTorus}
	trials := 40
	if testing.Short() {
		trials = 10
	}
	var bounds, scaledD2D int
	for trial := 0; trial < trials; trial++ {
		l := layers[rng.Intn(len(layers))]
		hw := randomHW(rng)
		hw.Topology = topologies[rng.Intn(len(topologies))]
		cfg := Config{KeepTop: 1}
		if hw.Topology == hardware.TopoRing && rng.Intn(2) == 0 {
			cfg.Fault = randomFault(rng, hw.Chiplets)
		}
		srch := newSearch(l, hw, cm, cfg)
		if srch == nil {
			continue
		}
		scaled := srch.fab.num != srch.fab.den
		srch.forEachReachable(func(c *boundCell) {
			got, terms := srch.ladderBounds(c), ladder(c)
			for i := range got {
				if want := srch.recordBound(c.st, &terms[i]); got[i] != want {
					t.Fatalf("trial %d: %s/%s on %s %s fault=%s: %s bound %v from the prefix, %v from the record (terms %+v) for %+v",
						trial, l.Model, l.Name, hw.Tuple(), hw.Topology, cfg.Fault,
						[...]string{"group", "subgroup", "cell"}[i], got[i], want, terms[i], c.probe)
				}
				bounds++
			}
			if scaled && c.st.rotate {
				scaledD2D++
			}
		})
	}
	t.Logf("%d bounds compared, %d cells with scaled die-to-die bytes", bounds, scaledD2D)
	if scaledD2D == 0 {
		t.Fatalf("no cell of %d bounds carried die-to-die bytes under a scale other than 1", bounds)
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
