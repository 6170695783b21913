package mapper

import (
	"cmp"
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"nnbaton/internal/c3p"
	"nnbaton/internal/energy"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapping"
	"nnbaton/internal/obs"
	"nnbaton/internal/par"
	"nnbaton/internal/workload"
)

// Counters receives the search funnel tallies of SearchAll. The group scan
// materializes a candidate — a feasible (chiplet tile, core tile) cell and
// its temporal variants — only when the scan reaches it with a cell bound
// at or below the incumbent threshold, so Generated counts the candidates
// that actually entered the funnel, not the full space the exhaustive
// reference enumerates; the gap between the two is what the bounds save.
// The scan drops a search, chiplet tile or planar pair whose buffer needs
// cannot fit before it bounds any cell below it: the W-L1 need in
// newSearch, the rotating-P weight chunk per chiplet tile (chipletTiles)
// and the rotating-C A-L2 share per planar pair (planarFits), each through
// its own need formula in internal/mapping. It lists only core tiles whose
// O-L1 and A-L1 needs fit (coreTilePairs), so a search with no feasible
// mapping tallies nothing, and only the A-L2 staging of a core slice can
// still reject a cell the scan has bounded.
// Each materialized candidate lands in exactly one of the outcome buckets,
// so Generated = BoundPruned + StagePruned + Evaluated always holds. The
// counters are nil-safe; a zero Counters discards tallies.
type Counters struct {
	// Generated counts feasible candidates materialized by the scan
	// (materialized cells × their temporal variants).
	Generated *obs.Counter
	// BoundPruned counts materialized candidates discarded by a bound. The
	// scan bounds groups, subgroups and cells before materializing them, so
	// it is structurally 0; the field stays for the funnel's consumers.
	BoundPruned *obs.Counter
	// StagePruned counts candidates dropped on their exact energy before
	// any C³P analysis or the runtime simulator ran.
	StagePruned *obs.Counter
	// Evaluated counts candidates that went through the full pipeline
	// including simulation.
	Evaluated *obs.Counter
	// FloorsComputed counts the feasible cells the scan materialized — each
	// one shape and one fixed-traffic record, shared by its temporal
	// variants.
	FloorsComputed *obs.Counter
	// GroupsBuilt counts the candidate groups the scan built and bounded:
	// every (subtree, planar pair) that some feasible cell can use.
	GroupsBuilt *obs.Counter
	// HeapPopped counts the candidate groups the scan expanded before the
	// incumbent cut it off: how much of the space it actually visited.
	HeapPopped *obs.Counter
}

// tally is the per-worker, allocation-free accumulator behind Counters.
type tally struct {
	generated, boundPruned, stagePruned, evaluated int64
	floors, built, popped                          int64
}

func (t *tally) add(o tally) {
	t.generated += o.generated
	t.boundPruned += o.boundPruned
	t.stagePruned += o.stagePruned
	t.evaluated += o.evaluated
	t.floors += o.floors
	t.built += o.built
	t.popped += o.popped
}

func (c *Counters) flush(t tally) {
	if c == nil {
		return
	}
	c.Generated.Add(t.generated)
	c.BoundPruned.Add(t.boundPruned)
	c.StagePruned.Add(t.stagePruned)
	c.Evaluated.Add(t.evaluated)
	c.FloorsComputed.Add(t.floors)
	c.GroupsBuilt.Add(t.built)
	c.HeapPopped.Add(t.popped)
}

// topK maintains the best k options in ascending (energy, mapping.Compare)
// order. The secondary key makes the retained set — and its order — a pure
// function of the candidate set: evaluation order, worker count and pruning
// cannot change which of two equal-energy mappings survives.
type topK struct {
	k      int
	opts   []Option
	scores []float64 // opts[i].Energy.Total()
}

func newTopK(k int) *topK {
	return &topK{k: k, opts: make([]Option, 0, k), scores: make([]float64, 0, k)}
}

// pos returns the insertion index of (s, m) in the retained order.
func (t *topK) pos(s float64, m mapping.Mapping) int {
	return sort.Search(len(t.opts), func(i int) bool {
		if t.scores[i] != s {
			return t.scores[i] > s
		}
		return mapping.Compare(t.opts[i].Analysis.Map, m) > 0
	})
}

// worst returns the k-th best energy, or +Inf while the set is not yet full.
// Any candidate whose energy lower bound strictly exceeds it cannot enter the
// set; equal energies still can, through the Compare tie-break.
func (t *topK) worst() float64 {
	if len(t.opts) < t.k {
		return math.Inf(1)
	}
	return t.scores[len(t.scores)-1]
}

// wouldAccept reports whether add would retain the candidate.
func (t *topK) wouldAccept(s float64, m mapping.Mapping) bool {
	return len(t.opts) < t.k || t.pos(s, m) < t.k
}

// add inserts the candidate, evicting the current worst when full.
func (t *topK) add(o Option) {
	s := o.Energy.Total()
	i := t.pos(s, o.Analysis.Map)
	if i >= t.k {
		return
	}
	if len(t.opts) < t.k {
		t.opts = append(t.opts, Option{})
		t.scores = append(t.scores, 0)
	}
	copy(t.opts[i+1:], t.opts[i:])
	copy(t.scores[i+1:], t.scores[i:])
	t.opts[i] = o
	t.scores[i] = s
}

// candGroup is one candidate group of the scan: every probe of a subtree
// sharing one planar pair (HOt, WOt). st indexes the scan's subtree list
// and [cp0, cp1) spans the group's core-tile rows in the worker's tile
// memo. The terms the pair fixes (its package planar trips and A-L2 fill
// floor) and the minima over the core-tile rows (the A-L1 fills at the
// subtree's smallest C2) are computed once, when buildGroups bounds the
// group, and read again — without recomputation — when it expands. The
// group holds no pointers, so the GC never scans the worker's group list.
type candGroup struct {
	st, cp0, cp1            int32
	hot, wot                int
	h1w1                    int64
	al2                     c3p.ActFloor
	h2w2Min, covMin, al1Min int64
}

// chipTile is one chiplet-tile candidate of a subtree with the channel
// terms it fixes: the trip counts C1 and C2, their product and the O-L1
// channel product C1·C2·activeLanes.
type chipTile struct {
	cot                  int
	c1, c2, c12, olChans int64
}

// coreTile is one core-tile candidate of a per-core region with the terms
// the pair fixes: the chiplet planar trips H2·W2, the planar coverage
// (H2·HOc)·(W2·WOc) and the A-L1 fill floor at hw's A-L1. The tile
// extents are int32, like the memo spans, which keeps a row at 40 bytes.
type coreTile struct {
	hoc, woc  int32
	h2w2, cov int64
	al1       c3p.ActFloor
}

// cotKey is what a subtree's chiplet-tile rows depend on: its region's
// channel count, its chiplet C split (which fixes the cores per weight
// group, csplit·parts = cores) and whether it rotates a P-type package
// split (chipletTiles).
type cotKey struct {
	cop, csplit int
	rotP        bool
}

// cotRows is the span of one cotKey's chiplet-tile rows in ws.cots and
// their channel minima.
type cotRows struct {
	span  [2]int32
	chans chipTile
}

// groupRef orders the scan: one group's coarse bound and its index in the
// worker's group list. The scan sorts these small keys rather than the
// groups themselves, whose swaps would copy the bound terms.
type groupRef struct {
	bound float64
	g     int32
}

// searchState is one worker's private scratch: the C³P analysis and its
// buffers, the candidate groups, the funnel tally and the per-search tile
// memos. Reusing it across every candidate a worker evaluates is what takes
// the steady-state search to near-zero allocations per candidate, and
// pooling it across searches (statePool) keeps a warm search from regrowing
// any of it.
type searchState struct {
	sc     c3p.Scratch
	a      c3p.Analysis
	tally  tally
	groups []candGroup
	order  []groupRef
	// The chiplet-tile rows of the scan's subtrees, one span of cots per
	// subtree. Subtrees with equal cotKeys share one span (cotAt).
	cotSpan [][2]int32
	cots    []chipTile
	cotAt   map[cotKey]cotRows
	// Per-search tile memos: within one search planarPairs depends only on
	// the region (hop, wop) and the core-tile rows only on the per-core
	// region (hs, ws), so each list is generated once into pairs or cores
	// and looked up by its span afterwards. takeStates clears them, since
	// the lists depend on the search's layer and hardware.
	pairs    [][2]int
	cores    []coreTile
	planarAt map[[2]int][2]int32
	coreAt   map[[2]int][2]int32
	// sts holds the worker's strided share of the subtrees.
	sts []subtree
}

// statePool recycles worker scratch across searches. The Clone-on-accept
// rule keeps every returned Option independent of the scratch, so a state
// can serve the next search as soon as its scan finishes.
var statePool = sync.Pool{New: func() any {
	return &searchState{planarAt: make(map[[2]int][2]int32), coreAt: make(map[[2]int][2]int32),
		cotAt: make(map[cotKey]cotRows)}
}}

// takeStates draws one reset state per worker from the pool.
func takeStates(workers int) []*searchState {
	states := make([]*searchState, workers)
	for i := range states {
		ws := statePool.Get().(*searchState)
		ws.pairs, ws.cores = ws.pairs[:0], ws.cores[:0]
		clear(ws.planarAt)
		clear(ws.coreAt)
		states[i] = ws
	}
	return states
}

// releaseStates returns the states to the pool. It drops the analysis the
// worker last evaluated, so an idle pooled state pins no layer or mapping.
func releaseStates(states []*searchState) {
	for _, ws := range states {
		ws.a = c3p.Analysis{}
		statePool.Put(ws)
	}
}

// memoTiles returns the span of the tile list memoized under key in
// *store, generating it there on first use. gen appends the list to its
// argument.
func memoTiles[T any](store *[]T, memo map[[2]int][2]int32, key [2]int, gen func([]T) []T) [2]int32 {
	if sp, ok := memo[key]; ok {
		return sp
	}
	off := len(*store)
	*store = gen(*store)
	sp := [2]int32{int32(off), int32(len(*store))}
	memo[key] = sp
	return sp
}

// search carries the per-search immutable inputs shared by all workers:
// the subtree shards with their bound factors, the one pricing kernel they
// all evaluate through, its rate card at the search's buffer sizes, which
// prices every bound and stage, and the bound factors the layer, compute
// allocation and fabric fix. Searches are pooled (searchPool), so the
// subtree list keeps its backing array from one search to the next.
type search struct {
	l     workload.Layer
	hw    hardware.Config
	fab   *Fabric
	card  energy.Card
	floor c3p.FloorConsts
	sts   []subtree
}

// searchPool recycles searches and their subtree lists. A search is
// released only when its caller is done with every slice of sts.
var searchPool = sync.Pool{New: func() any { return new(search) }}

// newSearch validates the inputs and builds the search's fabric and shards,
// or returns nil when the layer, hardware or interconnect geometry is
// invalid or the space is empty — the exhaustive path rejects those per
// candidate, the pruned path once up front (Feasible and the hoisted fabric
// assume validity). The search comes from searchPool; release returns it.
func newSearch(l workload.Layer, hw hardware.Config, cm *hardware.CostModel, cfg Config) *search {
	if l.Validate() != nil || hw.Validate() != nil {
		return nil
	}
	fab, err := NewFabric(hw, cfg.Fault, cm)
	if err != nil {
		return nil
	}
	// The W-L1 need depends on the layer and the compute allocation alone,
	// so the empty probe's needs decide it for every mapping of the search.
	var empty mapping.Mapping
	if !empty.BufferNeeds(&l, &hw).Fits(&hw) {
		return nil
	}
	s := searchPool.Get().(*search)
	*s = search{l: l, hw: hw, fab: fab, card: fab.Card(&hw),
		floor: c3p.NewFloorConsts(&l, &hw, fab.num, fab.den), sts: subtrees(s.sts[:0], l, hw, cfg)}
	if len(s.sts) == 0 {
		s.release()
		return nil
	}
	for i := range s.sts {
		st := &s.sts[i]
		st.floor = s.floor.Subtree(st.ps.kind, st.rotate, st.cs.csplit, st.cs.pattern.Parts())
	}
	return s
}

// release returns the search to searchPool, dropping its fabric so an idle
// pooled search pins no topology.
func (s *search) release() {
	s.fab = nil
	searchPool.Put(s)
}

// chipletTiles appends to dst the rows of the chiplet-tile candidates of st
// that some cell can use: at least one output channel per core of the
// channel split (the exhaustive walker's reject) and, on a rotating P
// split, a per-hop weight chunk (mapping.RotatingChunkNeed) that fits the
// W-L1 pool merged across the cores that share weights. The chiplet tile
// alone fixes both, and its channel terms.
func (s *search) chipletTiles(dst []chipTile, st *subtree) []chipTile {
	var buf [16]int // tileCandidates yields at most len(splitSeries)+1 tiles
	lanes, csplit := s.hw.Lanes, max(1, st.cs.csplit)
	rotP := st.rotate && st.ps.kind == mapping.SpatialP
	pool := int64(s.hw.WL1Bytes) * int64(st.cs.pattern.Parts())
	for _, cot := range tileCandidates(buf[:0], st.cop, st.cop) {
		if cot < st.cs.csplit || rotP && mapping.RotatingChunkNeed(&s.l, &s.hw, cot) > pool {
			continue
		}
		c1 := int64(ceilDiv(st.cop, cot))
		cos := ceilDiv(cot, csplit)
		c2 := int64(ceilDiv(cos, lanes))
		dst = append(dst, chipTile{cot: cot, c1: c1, c2: c2, c12: c1 * c2,
			olChans: c1 * c2 * int64(min(lanes, cos))})
	}
	return dst
}

// coreTiles appends to dst the rows of the core-tile candidates of an
// hs×ws per-core region (coreTilePairs).
func (s *search) coreTiles(dst []coreTile, hs, ws int) []coreTile {
	var buf [16][2]int // coreTilePairs yields at most 12 pairs
	l, hw := &s.l, &s.hw
	for _, cp := range coreTilePairs(buf[:0], l, hw, hs, ws) {
		h2, w2 := int64(ceilDiv(hs, cp[0])), int64(ceilDiv(ws, cp[1]))
		dst = append(dst, coreTile{hoc: int32(cp[0]), woc: int32(cp[1]), h2w2: h2 * w2,
			cov: h2 * int64(cp[0]) * w2 * int64(cp[1]),
			al1: c3p.AL1Floor(l, hw, cp[0], cp[1], h2*w2, int64(hw.AL1Bytes))})
	}
	return dst
}

// planarFits reports whether some cell of st can use the planar pair
// (hot, wot): the chiplet pattern must fit the tile plane (the exhaustive
// walker's reject) and, on a rotating C split, the chiplet's share of the
// tile input (mapping.RotatingAL2Need) must fit A-L2. The pair alone fixes
// both.
func (s *search) planarFits(st *subtree, hot, wot int) bool {
	if st.cs.pattern.Rows > hot || st.cs.pattern.Cols > wot {
		return false
	}
	return !st.rotate || st.ps.kind != mapping.SpatialC ||
		mapping.RotatingAL2Need(&s.l, &s.hw, hot, wot) <= int64(s.hw.AL2Bytes)
}

// groupBound sets p to the bound prefix of g's probes whose channel terms
// are c's — a chiplet tile's row, or the minima over the subtree's rows —
// and prices it at the group's core-tile minima: the coarse group bound the
// groups are sorted by (c the minima), or a subgroup's (c one chiplet tile,
// which makes the channel terms and the A-L2 fills exact). cellBound then
// prices each cell of the subgroup from the same prefix. The scan thus
// prices one group at three levels, each with the terms minimized over a
// narrower candidate set, the last with every term exact (the A-L1 and
// A-L2 fills being the fewest any temporal order incurs at hw's
// capacities). Every term is a stored tile row or group minimum, so a bound
// only takes products of stored integers. Admissible because every term is
// ≤ its value for every member variant, the prefix folds the exact
// assembly's branches, and the energy model is linear with non-negative
// coefficients, so a bound ≤ stage energy = energy for every temporal
// variant of every member probe (pinned by TestGroupBoundAdmissible).
func (s *search) groupBound(p *prefix, st *subtree, g *candGroup, c *chipTile) float64 {
	p.terms.Fold(&s.floor, &st.floor, c.c1, c.c12, c.olChans, g.h1w1, g.al2.At(c.c1))
	p.priced = s.card.Partial(p.terms.Fixed())
	return p.priced.Total(p.terms.Complete(g.h2w2Min, g.covMin, g.al1Min))
}

// cellBound prices the cell of the subgroup prefix p (of chiplet tile r) at
// core tile ct.
func (p *prefix) cellBound(r *chipTile, ct *coreTile) float64 {
	return p.priced.Total(p.terms.Complete(ct.h2w2, ct.cov, ct.al1.At(r.c2)))
}

// prefix is a bound prefix with its fixed sums priced by the search's card.
type prefix struct {
	terms  c3p.BoundPrefix
	priced energy.Partial
}

// channelMinima returns the termwise minima of the chiplet-tile rows cots,
// which the groups of their subtree share.
func channelMinima(cots []chipTile) chipTile {
	m := chipTile{c1: math.MaxInt64, c2: math.MaxInt64, c12: math.MaxInt64, olChans: math.MaxInt64}
	for i := range cots {
		r := &cots[i]
		m.c1, m.c2 = min(m.c1, r.c1), min(m.c2, r.c2)
		m.c12, m.olChans = min(m.c12, r.c12), min(m.olChans, r.olChans)
	}
	return m
}

// coreMinima sets g's minima over its core-tile rows cts, the A-L1 fills
// at c2, the subtree's smallest chiplet channel trip count.
func (g *candGroup) coreMinima(cts []coreTile, c2 int64) {
	g.h2w2Min, g.covMin, g.al1Min = math.MaxInt64, math.MaxInt64, math.MaxInt64
	for i := range cts {
		ct := &cts[i]
		g.h2w2Min = min(g.h2w2Min, ct.h2w2)
		g.covMin = min(g.covMin, ct.cov)
		g.al1Min = min(g.al1Min, ct.al1.At(c2))
	}
}

// buildGroups fills ws with the candidate groups of sts: one per (subtree,
// planar pair) that some cell can use, with the subtree's filtered
// chiplet-tile rows in ws.cots, the group's core-tile rows in the tile memo
// and its coarse bound in ws.order, unsorted. With newSearch's W-L1 check,
// chipletTiles and planarFits check every buffer need above the core tile,
// and the core-tile rows hold only tiles whose O-L1 and A-L1 needs fit, so
// each cell the groups span is feasible unless its core slice misses A-L2.
func (s *search) buildGroups(sts []subtree, ws *searchState) {
	al2 := int64(s.hw.AL2Bytes)
	var p prefix
	ws.groups, ws.order = ws.groups[:0], ws.order[:0]
	ws.cotSpan, ws.cots = ws.cotSpan[:0], ws.cots[:0]
	clear(ws.cotAt)
	for si := range sts {
		st := &sts[si]
		key := cotKey{cop: st.cop, csplit: st.cs.csplit, rotP: st.rotate && st.ps.kind == mapping.SpatialP}
		rows, ok := ws.cotAt[key]
		if !ok {
			off := len(ws.cots)
			ws.cots = s.chipletTiles(ws.cots, st)
			rows.span = [2]int32{int32(off), int32(len(ws.cots))}
			if len(ws.cots) > off {
				rows.chans = channelMinima(ws.cots[off:])
			}
			ws.cotAt[key] = rows
		}
		ws.cotSpan = append(ws.cotSpan, rows.span)
		if rows.span[0] == rows.span[1] {
			continue
		}
		chans := rows.chans
		pp := memoTiles(&ws.pairs, ws.planarAt, [2]int{st.hop, st.wop}, func(dst [][2]int) [][2]int {
			return planarPairs(dst, st.hop, st.wop)
		})
		for pi := pp[0]; pi < pp[1]; pi++ {
			hot, wot := ws.pairs[pi][0], ws.pairs[pi][1]
			if !s.planarFits(st, hot, wot) {
				continue
			}
			// (rh, rw) is the per-core region.
			rh, rw := ceilDiv(hot, st.cs.pattern.Rows), ceilDiv(wot, st.cs.pattern.Cols)
			cp := memoTiles(&ws.cores, ws.coreAt, [2]int{rh, rw}, func(dst []coreTile) []coreTile {
				return s.coreTiles(dst, rh, rw)
			})
			if cp[0] == cp[1] {
				continue
			}
			h1w1 := int64(ceilDiv(st.hop, hot)) * int64(ceilDiv(st.wop, wot))
			ws.groups = append(ws.groups, candGroup{st: int32(si), cp0: cp[0], cp1: cp[1], hot: hot, wot: wot,
				h1w1: h1w1, al2: c3p.AL2Floor(&s.l, hot, wot, h1w1, al2)})
			g := &ws.groups[len(ws.groups)-1]
			g.coreMinima(ws.cores[g.cp0:g.cp1], chans.c2)
			ws.order = append(ws.order, groupRef{bound: s.groupBound(&p, st, g, &chans), g: int32(len(ws.groups) - 1)})
		}
	}
}

// scan evaluates a set of subtree shards in ascending bound order. It
// builds the groups of sts (buildGroups), sorts them by their coarse bound
// and expands them in that order: a group's chiplet tiles (subgroups) and
// then their core tiles (cells) are each skipped when their tighter bound
// exceeds the incumbent threshold
// min(dest.worst(), shared), and every feasible cell that remains is
// evaluated on the spot (evalCell). The first group whose bound exceeds the
// threshold ends the scan: the groups after it bound at least as high, and
// the threshold only ever decreases, so none of them could place.
// Spanning all of a worker's subtrees with one scan (rather than one per
// subtree) lets the incumbent converge before weak subtrees spend anything.
// Pruning compares bounds strictly (>): an exact tie with the threshold must
// still be evaluated because the Compare tie-break could admit it. Result
// identity does not depend on visit order, only on the candidate set, which
// this generator shares with the exhaustive walker: the cells buildGroups
// leaves out are those no mapping can stage.
func (s *search) scan(sts []subtree, ws *searchState, dest *topK, shared *minBound) {
	l, hw := &s.l, &s.hw
	s.buildGroups(sts, ws)
	groups, order := ws.groups, ws.order
	ws.tally.built += int64(len(groups))
	// Bounds are never NaN, so plain comparisons order them exactly as
	// cmp.Compare would, without its NaN checks.
	slices.SortFunc(order, func(a, b groupRef) int {
		switch {
		case a.bound < b.bound:
			return -1
		case a.bound > b.bound:
			return 1
		}
		return 0
	})

	var sh mapping.Shape // the shape of the cell being evaluated
	for _, ref := range order {
		if ref.bound > min(dest.worst(), shared.Load()) {
			break
		}
		g := &groups[ref.g]
		ws.tally.popped++
		st := &sts[g.st]
		sp := ws.cotSpan[g.st]
		cots, cts := ws.cots[sp[0]:sp[1]], ws.cores[g.cp0:g.cp1]
		var p prefix
		for i := range cots {
			// A single chiplet tile makes the channel-product terms and the
			// A-L2 fills exact.
			r := &cots[i]
			if s.groupBound(&p, st, g, r) > min(dest.worst(), shared.Load()) {
				continue
			}
			for j := range cts {
				// With both tile axes fixed every term is exact, A-L1 and
				// A-L2 fills included, so the cell bound completes the
				// subgroup's prefix before the feasibility check runs.
				ct := &cts[j]
				if p.cellBound(r, ct) > min(dest.worst(), shared.Load()) {
					continue
				}
				probe := st.base()
				probe.COt, probe.HOt, probe.WOt = r.cot, g.hot, g.wot
				probe.HOc, probe.WOc = int(ct.hoc), int(ct.woc)
				if probe.FeasibleShape(l, hw, &sh) {
					s.evalCell(&probe, &sh, ws, dest, shared)
				}
			}
		}
	}
}

// evalCell runs the staged pipeline over the temporal variants of one
// feasible probe of shape sh, setting the probe's temporal orders in place.
// The shape and the fixed traffic are temporal-invariant, so they are
// computed once per cell. Each variant is first priced by c3p.StageTraffic,
// which builds no analysis, and totalled by the card: its exact energy
// decides the stage prune. Only the survivors get a breakdown, an analysis
// and a simulation.
func (s *search) evalCell(probe *mapping.Mapping, sh *mapping.Shape, ws *searchState, dest *topK, shared *minBound) {
	l, hw := &s.l, &s.hw
	ws.tally.floors++
	ws.tally.generated += temporalVariants(sh)
	var fixed, tr c3p.Traffic
	c3p.FixedTraffic(&fixed, l, hw, probe, sh)
	for _, pt := range temporalChoices(sh.C1, sh.H1*sh.W1) {
		for _, ct := range temporalChoices(sh.C2, sh.H2*sh.W2) {
			probe.PackageTemporal, probe.ChipletTemporal = pt, ct
			c3p.StageTraffic(&tr, &ws.sc, l, hw, probe, sh, &fixed)
			if stage := s.card.Total(&tr); stage > min(dest.worst(), shared.Load()) {
				ws.tally.stagePruned++
				continue
			}
			c3p.AnalyzeInto(&ws.a, &ws.sc, l, hw, probe)
			cycles, err := s.fab.Cycles(&ws.a, tr)
			if err != nil {
				ws.tally.stagePruned++
				continue
			}
			ws.tally.evaluated++
			o := Option{Analysis: &ws.a, Energy: s.card.Price(&tr), Cycles: cycles}
			if dest.wouldAccept(o.Energy.Total(), *probe) {
				// Detach the analysis from the worker scratch only for
				// the few candidates that actually enter the top-K.
				o.Analysis = ws.a.Clone()
				dest.add(o)
				if w := dest.worst(); !math.IsInf(w, 1) {
					shared.Update(w)
				}
			}
		}
	}
}

// strided appends to dst every workers-th subtree starting at w — the fixed
// shard a worker's scan spans. Static striding (vs dynamic dispatch) is
// fine because scans terminate early anyway; which worker owns which
// subtree never affects the result.
func strided(dst, sts []subtree, w, workers int) []subtree {
	for i := w; i < len(sts); i += workers {
		dst = append(dst, sts[i])
	}
	return dst
}

// resolveWorkers mirrors par's worker resolution so per-worker state can be
// sized before dispatch.
func resolveWorkers(cfg, n int) int {
	if cfg <= 0 {
		cfg = runtime.GOMAXPROCS(0)
	}
	return min(cfg, n)
}

// rethrowPanics re-raises a worker panic that par converted into an error, so
// a panicking cost model surfaces to SearchAll's caller exactly as it does on
// the serial path (the engine's recovery then wraps it into a PanicError at
// its own site). Any other error is impossible: the context is never
// cancelled and worker bodies return nil.
func rethrowPanics(err error) {
	var pe *par.PanicError
	if errors.As(err, &pe) {
		panic(pe.Value)
	}
}

// minBound is the lock-free shared incumbent of a parallel search: the
// smallest bound any worker has published so far. Workers fold it into their
// local pruning threshold so a strong incumbent found in one shard prunes
// every other shard. Lowering is a CAS-min; the bound only ever decreases, so
// a stale read is merely conservative, never unsound.
type minBound struct{ bits atomic.Uint64 }

// newMinBound returns a bound at +Inf — no incumbent yet.
func newMinBound() *minBound {
	b := &minBound{}
	b.bits.Store(math.Float64bits(math.Inf(1)))
	return b
}

// Load returns the current bound.
func (b *minBound) Load() float64 { return math.Float64frombits(b.bits.Load()) }

// Update lowers the bound to v when v is smaller; larger values are ignored.
func (b *minBound) Update(v float64) {
	for {
		old := b.bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if b.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// SearchAll evaluates the mapping space and returns the best KeepTop options
// sorted by energy (ties broken by mapping.Compare). It is
// result-identical to SearchExhaustive — enforced by randomized equivalence
// tests — but scans the space in ascending order of admissible lower bounds,
// stages the evaluation pipeline so the simulator only runs for survivors,
// shards the space across Workers goroutines with a shared incumbent bound,
// and reuses per-worker scratch so
// the steady-state candidate path does not allocate.
func SearchAll(l workload.Layer, hw hardware.Config, cm *hardware.CostModel, cfg Config) []Option {
	cfg = cfg.WithDefaults()
	srch := newSearch(l, hw, cm, cfg)
	if srch == nil {
		return nil
	}
	defer srch.release()
	states := takeStates(resolveWorkers(cfg.Workers, len(srch.sts)))
	defer releaseStates(states)
	return srch.run(states, srch.sts, cfg.KeepTop, cfg.Counters)
}

// run searches sts for its best k options: it splits sts across the
// per-worker states, one strided share each, scans every share with one
// shared incumbent, merges the workers' top-k lists and flushes the funnel
// tally into ctrs. A worker's one scan spans its whole share, so the bound
// order holds across subtree boundaries and a worker's weak subtrees die as
// unexpanded groups instead of each warming up its own incumbent.
func (s *search) run(states []*searchState, sts []subtree, k int, ctrs *Counters) []Option {
	workers := min(len(states), len(sts))
	tops := make([]*topK, workers)
	for i := range tops {
		tops[i] = newTopK(k)
		states[i].tally = tally{}
	}
	shared := newMinBound()
	// A worker goroutine may run more than one share, so its tally and top-k
	// accumulate across the shares it runs.
	err := par.ParallelForWorker(context.Background(), workers, workers, func(w, i int) error {
		ws := states[w]
		ws.sts = strided(ws.sts[:0], sts, i, workers)
		s.scan(ws.sts, ws, tops[w], shared)
		return nil
	})
	if err != nil {
		rethrowPanics(err)
		return nil
	}
	var t tally
	for _, ws := range states[:workers] {
		t.add(ws.tally)
	}
	ctrs.flush(t)

	// Deterministic merge: every global top-K candidate survives in its
	// worker's local top-K (fewer than K candidates beat it anywhere, so in
	// particular within its own shard), and the (energy, Compare) order is a
	// strict total order over the distinct candidate mappings — so re-ranking
	// the union reproduces the exhaustive result regardless of how the work
	// was split.
	if workers == 1 {
		return tops[0].opts
	}
	merged := newTopK(k)
	for _, t := range tops {
		for _, o := range t.opts {
			merged.add(o)
		}
	}
	return merged.opts
}

// BestPerSpatialCombo returns the best (minimum-energy) option for each
// (package, chiplet) spatial pair — the bars of Fig 11. Combos with no valid
// mapping are omitted (e.g. (C,C) on layers with too few output channels).
// Each combo is searched on its own, with its own incumbent, so the pruning
// a strong combo enjoys never starves a weak combo of its bar. The combos
// are dealt to the workers, one serial search each and the combos with the
// most subtrees first, so the long searches start early: most combos span
// too few subtrees to split across workers without leaving one idle.
func BestPerSpatialCombo(l workload.Layer, hw hardware.Config, cm *hardware.CostModel) map[string]Option {
	best := make(map[string]Option)
	srch := newSearch(l, hw, cm, Config{KeepTop: 1})
	if srch == nil {
		return best
	}
	defer srch.release()
	combo := func(a, b subtree) int {
		return cmp.Or(cmp.Compare(a.ps.kind, b.ps.kind), cmp.Compare(a.cs.kind, b.cs.kind))
	}
	slices.SortStableFunc(srch.sts, combo)
	var groups [][]subtree
	for sts := srch.sts; len(sts) > 0; {
		n := 1
		for n < len(sts) && combo(sts[0], sts[n]) == 0 {
			n++
		}
		groups, sts = append(groups, sts[:n]), sts[n:]
	}
	slices.SortStableFunc(groups, func(a, b []subtree) int { return cmp.Compare(len(b), len(a)) })
	states := takeStates(resolveWorkers(0, len(groups)))
	defer releaseStates(states)
	found := make([][]Option, len(groups))
	err := par.ParallelForWorker(context.Background(), len(groups), len(states), func(w, g int) error {
		found[g] = srch.run(states[w:w+1], groups[g], 1, nil)
		return nil
	})
	if err != nil {
		rethrowPanics(err)
		return best
	}
	for _, opts := range found {
		if len(opts) > 0 {
			best[opts[0].SpatialCombo()] = opts[0]
		}
	}
	return best
}
