package mapper

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"nnbaton/internal/c3p"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapping"
	"nnbaton/internal/obs"
	"nnbaton/internal/par"
	"nnbaton/internal/sim"
	"nnbaton/internal/workload"
)

// Counters receives the search funnel tallies of SearchAll. The best-first
// generator materializes a candidate — computes its admissible floor — only
// when the frontier reaches it, so Generated counts the candidates that
// actually entered the funnel, not the full space the exhaustive reference
// enumerates; the gap between the two is the lazy generator's saving. Each
// materialized candidate (probe × temporal order) lands in exactly one of the
// three outcome buckets, so Generated = BoundPruned + StagePruned + Evaluated
// always holds. The counters are nil-safe; a zero Counters discards tallies.
type Counters struct {
	// Generated counts feasible candidates materialized by the lazy
	// generator (floored probes × their temporal variants).
	Generated *obs.Counter
	// BoundPruned counts materialized candidates discarded by the admissible
	// lower bound — at floor time or when the frontier terminated — before
	// any C³P analysis ran.
	BoundPruned *obs.Counter
	// StagePruned counts candidates dropped after traffic/energy evaluation
	// but before the runtime simulator ran.
	StagePruned *obs.Counter
	// Evaluated counts candidates that went through the full pipeline
	// including simulation.
	Evaluated *obs.Counter
	// FloorsComputed counts exact per-probe admissible floors computed by the
	// generator — the dominant pre-evaluation cost the best-first ordering
	// exists to shrink (one floor covers every temporal variant of a probe).
	FloorsComputed *obs.Counter
	// HeapPopped counts best-first frontier pops (candidate groups expanded
	// plus probes scheduled), a direct measure of how much of the space the
	// search actually visited before the incumbent cut it off.
	HeapPopped *obs.Counter
}

// tally is the per-worker, allocation-free accumulator behind Counters.
type tally struct {
	generated, boundPruned, stagePruned, evaluated int64
	floors, popped                                 int64
}

func (t *tally) add(o tally) {
	t.generated += o.generated
	t.boundPruned += o.boundPruned
	t.stagePruned += o.stagePruned
	t.evaluated += o.evaluated
	t.floors += o.floors
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
	c.HeapPopped.Add(t.popped)
}

// topK maintains the best k options in ascending (score, mapping.Compare)
// order. The secondary key makes the retained set — and its order — a pure
// function of the candidate set: evaluation order, worker count and pruning
// cannot change which of two equal-scoring mappings survives.
type topK struct {
	k      int
	obj    Objective
	opts   []Option
	scores []float64
}

func newTopK(k int, obj Objective) *topK {
	return &topK{k: k, obj: obj, opts: make([]Option, 0, k), scores: make([]float64, 0, k)}
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

// worst returns the k-th best score, or +Inf while the set is not yet full.
// Any candidate whose score lower bound strictly exceeds it cannot enter the
// set; equal scores still can, through the Compare tie-break.
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
func (t *topK) add(o Option, s float64) {
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

// bfGroup is one unexpanded candidate group of the best-first frontier: every
// probe of a subtree sharing one planar pair (HOt, WOt). st indexes the
// frontier's subtree list; the per-core region (hs, ws), the span
// [cp0, cp1) of its core-tile candidates in the worker's tile memo and the
// group's coarse bound terms are computed once, used first by the group
// bound and again — without recomputation — when the group expands. The
// group holds no pointers, so the GC never scans the frontier's group list.
type bfGroup struct {
	st, cp0, cp1 int32
	hot, wot     int
	hs, ws       int
	terms        c3p.GroupFloorTerms
}

// bfProbe is a materialized probe parked off-heap: the frontier node only
// carries its index, keeping heap sift swaps to a few words instead of a full
// Mapping copy (the sift copies dominated the profile when nodes embedded the
// probe). nvar caches the temporal-variant count so the termination drain can
// account bound-pruned candidates without recomputing shapes.
type bfProbe struct {
	m    mapping.Mapping
	nvar int64
}

// bfNode is one frontier entry at one of four refinement levels: a candidate
// group awaiting expansion into subgroups (group >= 0, cot < 0), a subgroup —
// the group under one fixed chiplet tile — awaiting per-core-tile refinement
// (group >= 0, cot >= 0 indexing the subtree's tile list, cp < 0), a cell —
// one (chiplet tile, core tile) choice, i.e. a single not-yet-materialized
// probe — awaiting its exact floor (cp >= 0 indexing the group's core pairs),
// or a floored probe awaiting evaluation (probe >= 0 indexing the worker's
// parked probes, group < 0). bound is admissible at every level — it
// lower-bounds every probe the node can produce — so the heap pops in
// ascending floor order and the first pop above the incumbent threshold
// proves everything still queued can only be worse. The middle levels exist
// for tightness: fixing the chiplet tile makes the channel-product terms
// exact, and fixing the core tile makes every term exact, so most refined
// nodes die on the heap without the generator ever running the full
// feasibility + TrafficFloor pipeline for them.
type bfNode struct {
	bound float64
	probe int32
	group int32
	cot   int32
	cp    int32
}

// heapPush and heapPop are a minimal slice min-heap on bound, kept free of
// the container/heap interface so nodes never escape to the heap's interface
// boxes. Pop order among equal bounds is an implementation detail: result
// identity never depends on visit order, only on the candidate set.
func heapPush(h []bfNode, n bfNode) []bfNode {
	h = append(h, n)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].bound <= h[i].bound {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func heapPop(h []bfNode) (bfNode, []bfNode) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l].bound < h[small].bound {
			small = l
		}
		if r < len(h) && h[r].bound < h[small].bound {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top, h
}

// searchState is one worker's private scratch: the C³P analysis and its
// buffers, the best-first frontier, the funnel tally and the per-search tile
// memos. Reusing it across every candidate a worker evaluates is what takes
// the steady-state search to near-zero allocations per candidate, and
// pooling it across searches (statePool) keeps a warm search from regrowing
// any of it.
type searchState struct {
	sc     c3p.Scratch
	a      c3p.Analysis
	tally  tally
	heap   []bfNode
	groups []bfGroup
	probes []bfProbe
	// The chiplet-tile candidates of the frontier's subtrees, one span of
	// cots per subtree.
	cotSpan [][2]int32
	cots    []int
	// Per-search tile memos: within one search planarPairs depends only on
	// the region (hop, wop) and coreTilePairs only on the per-core region
	// (hs, ws), so each list is generated once into pairs and looked up by
	// its span afterwards. takeStates clears them, since the lists depend on the
	// search's layer and hardware.
	pairs    [][2]int
	planarAt map[[2]int][2]int32
	coreAt   map[[2]int][2]int32
	// sts and byCombo hold a worker's strided share of the subtrees.
	sts     []subtree
	byCombo [numCombos][]subtree
}

// statePool recycles worker scratch across searches. The Clone-on-accept
// rule keeps every returned Option independent of the scratch, so a state
// can serve the next search as soon as its frontier finishes.
var statePool = sync.Pool{New: func() any {
	return &searchState{planarAt: make(map[[2]int][2]int32), coreAt: make(map[[2]int][2]int32)}
}}

// takeStates draws one reset state per worker from the pool.
func takeStates(workers int) []*searchState {
	states := make([]*searchState, workers)
	for i := range states {
		ws := statePool.Get().(*searchState)
		ws.tally = tally{}
		ws.pairs = ws.pairs[:0]
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

// memoPairs returns the tile list memoized under key, generating it into
// the shared pairs store on first use. gen appends the list to its argument.
func (ws *searchState) memoPairs(memo map[[2]int][2]int32, key [2]int, gen func([][2]int) [][2]int) [2]int32 {
	if sp, ok := memo[key]; ok {
		return sp
	}
	off := len(ws.pairs)
	ws.pairs = gen(ws.pairs)
	sp := [2]int32{int32(off), int32(len(ws.pairs))}
	memo[key] = sp
	return sp
}

// search carries the per-search immutable inputs shared by all workers:
// the subtree shards and the one pricing kernel they all evaluate through.
type search struct {
	l   workload.Layer
	hw  hardware.Config
	fab *Fabric
	cfg Config
	sts []subtree
}

// newSearch validates the inputs and builds the search's fabric and shards,
// or returns nil when the layer, hardware or interconnect geometry is
// invalid or the space is empty — the exhaustive path rejects those per
// candidate, the pruned path once up front (Feasible and the hoisted fabric
// assume validity).
func newSearch(l workload.Layer, hw hardware.Config, cm *hardware.CostModel, cfg Config) *search {
	if l.Validate() != nil || hw.Validate() != nil {
		return nil
	}
	fab, err := NewFabric(hw, cfg.Fault, cm)
	if err != nil {
		return nil
	}
	sts := subtrees(l, hw, cfg)
	if len(sts) == 0 {
		return nil
	}
	return &search{l: l, hw: hw, fab: fab, cfg: cfg, sts: sts}
}

// lowerBound prices a probe's best case for the active objective: the C³P
// traffic floor (intrinsic fills, exact fixed terms) through the fabric's
// energy step — D2D scaled to physical bytes — and, for EDP, the
// compute-bound runtime. Both models are monotone in their traffic/cycle
// inputs, ceil scaling preserves component-wise ≤, and the floor
// under-counts nothing negative, so the true score of every temporal variant
// of the probe is ≥ this value — the admissibility property the pruning
// relies on. See DESIGN.md.
func (s *search) lowerBound(m *mapping.Mapping, sh *mapping.Shape) float64 {
	l, hw := &s.l, &s.hw
	var tr c3p.Traffic
	c3p.TrafficFloor(&tr, l, hw, m, sh)
	e := s.fab.Energy(&tr, hw).Total()
	if s.cfg.Objective == MinEDP {
		e *= hardware.Seconds(sim.ComputeBoundCyclesOf(l, hw, m, sh))
	}
	return e
}

// groupBound prices the best case of every probe whose shape-product terms
// are bounded below by t: the terms are assembled through
// c3p.GroupTrafficFloor — the group-level counterpart of lowerBound — and
// priced by the fabric. The frontier prices one group at three levels, each
// with the terms minimized over a narrower candidate set: the full chiplet-
// and core-tile lists (the cheap coarse bound), a single chiplet tile
// (channel terms exact) and a single (chiplet tile, core tile) cell (every
// term exact). channelTerms and coreTerms fill in the minima; a term that
// depends on only one of the two lists is computed once per list, not once
// per bound. Admissible because every term is a true lower bound on its
// per-member value, the assembly mirrors the exact one branch for branch,
// and the energy model is linear with non-negative coefficients, so
// groupBound ≤ lowerBound(probe) ≤ score(probe) for every member probe
// (pinned by TestGroupBoundAdmissible).
func (s *search) groupBound(st *subtree, t *c3p.GroupFloorTerms) float64 {
	l, hw := &s.l, &s.hw
	var tr c3p.Traffic
	c3p.GroupTrafficFloor(&tr, l, hw, st.ps.kind, st.rotate, max(1, st.cs.csplit), t)
	e := s.fab.Energy(&tr, hw).Total()
	if s.cfg.Objective == MinEDP {
		e *= hardware.Seconds(c3p.GroupCyclesFloor(l, hw, t))
	}
	return e
}

// channelTerms sets t's channel-product minima over the chiplet-tile
// candidates cots of subtree st.
func (s *search) channelTerms(t *c3p.GroupFloorTerms, st *subtree, cots []int) {
	lanes, csplit := s.hw.Lanes, max(1, st.cs.csplit)
	t.C1Min, t.C12Min, t.OLChanMin = math.MaxInt64, math.MaxInt64, math.MaxInt64
	for _, cot := range cots {
		c1 := int64(ceilDiv(st.cop, cot))
		cos := ceilDiv(cot, csplit)
		c12 := c1 * int64(ceilDiv(cos, lanes))
		t.C1Min = min(t.C1Min, c1)
		t.C12Min = min(t.C12Min, c12)
		t.OLChanMin = min(t.OLChanMin, c12*int64(min(lanes, cos)))
	}
}

// planarTerms sets the terms that the planar pair of g fixes exactly.
func (s *search) planarTerms(t *c3p.GroupFloorTerms, st *subtree, g *bfGroup) {
	l := &s.l
	t.H1W1 = int64(ceilDiv(st.hop, g.hot)) * int64(ceilDiv(st.wop, g.wot))
	t.AL2Intr = l.TileInputBytes(g.hot, g.wot, l.CI) * t.H1W1
}

// coreTerms sets t's core-tile minima over the candidates cps of group g.
func (s *search) coreTerms(t *c3p.GroupFloorTerms, g *bfGroup, cps [][2]int) {
	l := &s.l
	t.H2W2Min, t.PlanarCovMin, t.AL1IntrMin = math.MaxInt64, math.MaxInt64, math.MaxInt64
	for _, cp := range cps {
		h2 := int64(ceilDiv(g.hs, cp[0]))
		w2 := int64(ceilDiv(g.ws, cp[1]))
		t.H2W2Min = min(t.H2W2Min, h2*w2)
		t.PlanarCovMin = min(t.PlanarCovMin, h2*int64(cp[0])*w2*int64(cp[1]))
		t.AL1IntrMin = min(t.AL1IntrMin, l.TileInputBytes(cp[0], cp[1], l.CI)*h2*w2)
	}
}

// runFrontier evaluates a set of subtree shards best-first through one shared
// frontier. The frontier starts with one node per candidate group (subtree ×
// planar pair), bounded by the cheap coarse group floor; popping a group
// refines it into one subgroup per chiplet tile (tighter bounds, channel
// terms exact); popping a subgroup materializes its probes — exact per-probe
// floors, one per feasibility-checked probe — and popping a probe runs the
// staged pipeline (C³P traffic/energy, then the simulator) over its temporal
// variants, exactly as the enumerate-then-filter loop did. Because every
// node's bound is admissible and the heap pops in ascending bound order, the
// first pop that strictly exceeds the incumbent threshold min(dest.worst(),
// shared) proves every queued and unrefined candidate scores at least as
// high, and the whole frontier terminates — the ~60k floors the old loop
// priced per layer collapse to the few hundred the frontier actually reaches.
// Spanning all of a worker's subtrees with one frontier (rather than one per
// subtree) is what lets the incumbent converge before weak subtrees spend
// anything: their groups die unrefined. Pruning compares bounds strictly (>):
// an exact tie with the threshold must still be evaluated because the Compare
// tie-break could admit it. The threshold only ever decreases, so a
// bound-pruned candidate is pruned for good; result identity does not depend
// on visit order, only on the candidate set, which this generator shares with
// the exhaustive walker.
func (s *search) runFrontier(sts []subtree, ws *searchState, dest *topK, shared *minBound) {
	l, hw, obj := &s.l, &s.hw, s.cfg.Objective
	groups, heap, probes := ws.groups[:0], ws.heap[:0], ws.probes[:0]
	ws.cotSpan, ws.cots = ws.cotSpan[:0], ws.cots[:0]
	for si := range sts {
		st := &sts[si]
		// Chiplet-tile candidates of the subtree, pre-filtered by the channel
		// split (the same reject the exhaustive walker applies).
		off := len(ws.cots)
		ws.cots = tileCandidates(ws.cots, st.cop, st.cop)
		kept := slices.DeleteFunc(ws.cots[off:], func(cot int) bool { return cot < st.cs.csplit })
		ws.cots = ws.cots[:off+len(kept)]
		ws.cotSpan = append(ws.cotSpan, [2]int32{int32(off), int32(len(ws.cots))})
		if len(ws.cots) == off {
			continue
		}
		// The channel minima over the full tile list are shared by every
		// group of the subtree.
		var chans c3p.GroupFloorTerms
		s.channelTerms(&chans, st, ws.cots[off:])
		pp := ws.memoPairs(ws.planarAt, [2]int{st.hop, st.wop}, func(dst [][2]int) [][2]int {
			return planarPairs(dst, st.hop, st.wop)
		})
		for pi := pp[0]; pi < pp[1]; pi++ {
			hot, wot := ws.pairs[pi][0], ws.pairs[pi][1]
			if st.cs.pattern.Rows > hot || st.cs.pattern.Cols > wot {
				continue
			}
			g := bfGroup{st: int32(si), hot: hot, wot: wot,
				hs: ceilDiv(hot, st.cs.pattern.Rows), ws: ceilDiv(wot, st.cs.pattern.Cols)}
			cp := ws.memoPairs(ws.coreAt, [2]int{g.hs, g.ws}, func(dst [][2]int) [][2]int {
				return coreTilePairs(dst, l, hw, g.hs, g.ws)
			})
			if cp[0] == cp[1] {
				continue
			}
			g.cp0, g.cp1 = cp[0], cp[1]
			g.terms = chans
			s.planarTerms(&g.terms, st, &g)
			s.coreTerms(&g.terms, &g, ws.pairs[g.cp0:g.cp1])
			groups = append(groups, g)
			heap = heapPush(heap, bfNode{bound: s.groupBound(st, &g.terms), group: int32(len(groups) - 1), cot: -1, cp: -1, probe: -1})
		}
	}

	for len(heap) > 0 {
		var n bfNode
		n, heap = heapPop(heap)
		ws.tally.popped++
		thresh := min(dest.worst(), shared.Load())
		if n.bound > thresh {
			// The frontier's minimum exceeds the incumbent threshold, so
			// every remaining candidate bounds at least as high. Probes
			// already materialized resolve as bound-pruned; unrefined groups
			// and subgroups never enter the funnel at all.
			if n.probe >= 0 {
				ws.tally.boundPruned += probes[n.probe].nvar
			}
			for _, r := range heap {
				if r.probe >= 0 {
					ws.tally.boundPruned += probes[r.probe].nvar
				}
			}
			break
		}
		if n.group >= 0 {
			g := &groups[n.group]
			st := &sts[g.st]
			sp := ws.cotSpan[g.st]
			cots, cps := ws.cots[sp[0]:sp[1]], ws.pairs[g.cp0:g.cp1]
			switch {
			case n.cot < 0:
				// Refine the group into one subgroup per chiplet tile: the
				// single-tile bound makes the channel-product terms exact.
				t := g.terms
				for i := range cots {
					s.channelTerms(&t, st, cots[i:i+1])
					heap = heapPush(heap, bfNode{
						bound: s.groupBound(st, &t),
						group: n.group, cot: int32(i), cp: -1, probe: -1,
					})
				}
			case n.cp < 0:
				// Refine the subgroup into one cell per core tile: with both
				// tile axes fixed the singleton-list bound has every term
				// exact, so a cell's bound is essentially its member's floor
				// — computed through the cheap group assembly, without the
				// feasibility check and TrafficFloor walk the real floor
				// pays.
				t := g.terms
				s.channelTerms(&t, st, cots[n.cot:n.cot+1])
				for j := range cps {
					s.coreTerms(&t, g, cps[j:j+1])
					heap = heapPush(heap, bfNode{
						bound: s.groupBound(st, &t),
						group: n.group, cot: n.cot, cp: int32(j), probe: -1,
					})
				}
			default:
				// Materialize the cell: floor its probe exactly once (the
				// floor is temporal-invariant and covers every variant).
				probe := st.base()
				probe.COt, probe.HOt, probe.WOt = cots[n.cot], g.hot, g.wot
				probe.HOc, probe.WOc = cps[n.cp][0], cps[n.cp][1]
				if !probe.FeasibleOn(l, hw) {
					continue
				}
				sh := probe.Shape(l, hw)
				nvar := temporalVariants(&sh)
				ws.tally.floors++
				ws.tally.generated += nvar
				fl := s.lowerBound(&probe, &sh)
				if fl > thresh {
					ws.tally.boundPruned += nvar
					continue
				}
				probes = append(probes, bfProbe{m: probe, nvar: nvar})
				heap = heapPush(heap, bfNode{bound: fl, probe: int32(len(probes) - 1), group: -1, cot: -1, cp: -1})
			}
			continue
		}
		// Evaluate the probe's temporal variants through the staged pipeline.
		probe := &probes[n.probe].m
		sh := probe.Shape(l, hw)
		for _, pt := range temporalChoices(sh.C1, sh.H1*sh.W1) {
			for _, ct := range temporalChoices(sh.C2, sh.H2*sh.W2) {
				m := *probe
				m.PackageTemporal, m.ChipletTemporal = pt, ct
				c3p.AnalyzeInto(&ws.a, &ws.sc, l, hw, &m)
				tr := ws.a.Traffic()
				br := s.fab.Energy(&tr, hw)
				// Stage prune: the exact energy is known before the
				// simulator runs; for EDP, pair it with the compute-bound
				// runtime — still a lower bound on the final score.
				stage := br.Total()
				if obj == MinEDP {
					stage *= hardware.Seconds(sim.ComputeBoundCyclesOf(l, hw, &m, &sh))
				}
				thresh = min(dest.worst(), shared.Load())
				if stage > thresh {
					ws.tally.stagePruned++
					continue
				}
				cycles, err := s.fab.Cycles(&ws.a, tr)
				if err != nil {
					ws.tally.stagePruned++
					continue
				}
				ws.tally.evaluated++
				o := Option{Analysis: &ws.a, Energy: br, Cycles: cycles}
				sc := o.Score(obj)
				if dest.wouldAccept(sc, m) {
					// Detach the analysis from the worker scratch only for
					// the few candidates that actually enter the top-K.
					o.Analysis = ws.a.Clone()
					dest.add(o, sc)
					if w := dest.worst(); !math.IsInf(w, 1) {
						shared.Update(w)
					}
				}
			}
		}
	}
	ws.groups, ws.heap, ws.probes = groups[:0], heap[:0], probes[:0]
}

// strided appends to dst every workers-th subtree starting at w — the fixed
// shard a worker's frontier spans. Static striding (vs dynamic dispatch) is
// fine because frontiers terminate early anyway; which worker owns which
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
// the serial path (the engine's recovery then wraps it into its structured
// PanicError). Any other error is impossible: the context is never cancelled
// and worker bodies return nil.
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
// sorted by the objective (ties broken by mapping.Compare). It is
// result-identical to SearchExhaustive — enforced by randomized equivalence
// tests — but orders the space best-first under admissible lower bounds,
// stages the evaluation pipeline so the simulator only runs for survivors,
// shards the space across Workers goroutines with a shared incumbent bound,
// and reuses per-worker scratch so
// the steady-state candidate path does not allocate.
func SearchAll(l workload.Layer, hw hardware.Config, cm *hardware.CostModel, cfg Config) []Option {
	if cfg.KeepTop <= 0 {
		cfg.KeepTop = 8
	}
	srch := newSearch(l, hw, cm, cfg)
	if srch == nil {
		return nil
	}
	workers := resolveWorkers(cfg.Workers, len(srch.sts))
	states := takeStates(workers)
	defer releaseStates(states)
	tops := make([]*topK, workers)
	for i := range tops {
		tops[i] = newTopK(cfg.KeepTop, cfg.Objective)
	}
	shared := newMinBound()
	// One frontier per worker, spanning the worker's strided share of the
	// subtrees: the best-first order then holds across subtree boundaries,
	// so a worker's weak subtrees die as unexpanded group nodes instead of
	// each warming up its own frontier.
	err := par.ParallelForWorker(context.Background(), workers, workers, func(w, i int) error {
		ws := states[w]
		ws.sts = strided(ws.sts[:0], srch.sts, i, workers)
		srch.runFrontier(ws.sts, ws, tops[w], shared)
		return nil
	})
	if err != nil {
		rethrowPanics(err)
		return nil
	}
	var t tally
	for _, ws := range states {
		t.add(ws.tally)
	}
	cfg.Counters.flush(t)

	// Deterministic merge: every global top-K candidate survives in its
	// worker's local top-K (fewer than K candidates beat it anywhere, so in
	// particular within its own shard), and the (score, Compare) order is a
	// strict total order over the distinct candidate mappings — so re-ranking
	// the union reproduces the exhaustive result regardless of how the work
	// was split.
	if workers == 1 {
		return tops[0].opts
	}
	merged := newTopK(cfg.KeepTop, cfg.Objective)
	for _, t := range tops {
		for j, o := range t.opts {
			merged.add(o, t.scores[j])
		}
	}
	return merged.opts
}

// comboIndex maps a (package, chiplet) spatial pair to a dense index for
// BestPerSpatialCombo's per-combo incumbents.
func comboIndex(pkg, chip mapping.Spatial) int {
	p := 0
	if pkg == mapping.SpatialP {
		p = 1
	}
	c := 2 // SpatialH
	switch chip {
	case mapping.SpatialC:
		c = 0
	case mapping.SpatialP:
		c = 1
	}
	return p*3 + c
}

const numCombos = 6

// BestPerSpatialCombo returns the best (minimum-energy) option for each
// (package, chiplet) spatial pair — the bars of Fig 11. Combos with no valid
// mapping are omitted (e.g. (C,C) on layers with too few output channels).
// Each combo keeps its own incumbent bound, so the pruning a strong combo
// enjoys never starves a weak combo of its bar.
func BestPerSpatialCombo(l workload.Layer, hw hardware.Config, cm *hardware.CostModel) map[string]Option {
	best := make(map[string]Option)
	cfg := Config{Objective: MinEnergy, KeepTop: 1}
	srch := newSearch(l, hw, cm, cfg)
	if srch == nil {
		return best
	}
	workers := resolveWorkers(0, len(srch.sts))
	states := takeStates(workers)
	defer releaseStates(states)
	tops := make([][numCombos]*topK, workers)
	for i := range tops {
		for c := range tops[i] {
			tops[i][c] = newTopK(1, MinEnergy)
		}
	}
	var bounds [numCombos]*minBound
	for c := range bounds {
		bounds[c] = newMinBound()
	}
	// Each combo keeps its own incumbent and destination, so a worker runs
	// one frontier per combo over its strided share: within a combo the
	// frontier spans subtree boundaries, across combos nothing is shared.
	err := par.ParallelForWorker(context.Background(), workers, workers, func(w, i int) error {
		ws := states[w]
		for c := range ws.byCombo {
			ws.byCombo[c] = ws.byCombo[c][:0]
		}
		ws.sts = strided(ws.sts[:0], srch.sts, i, workers)
		for _, st := range ws.sts {
			c := comboIndex(st.ps.kind, st.cs.kind)
			ws.byCombo[c] = append(ws.byCombo[c], st)
		}
		for c, group := range ws.byCombo {
			if len(group) > 0 {
				srch.runFrontier(group, ws, tops[w][c], bounds[c])
			}
		}
		return nil
	})
	if err != nil {
		rethrowPanics(err)
		return best
	}
	for c := 0; c < numCombos; c++ {
		merged := newTopK(1, MinEnergy)
		for w := range tops {
			t := tops[w][c]
			for j, o := range t.opts {
				merged.add(o, t.scores[j])
			}
		}
		if len(merged.opts) > 0 {
			o := merged.opts[0]
			best[o.SpatialCombo()] = o
		}
	}
	return best
}
