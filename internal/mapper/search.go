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
	// HeapPopped counts the candidate groups the scan expanded before the
	// incumbent cut it off: how much of the space it actually visited.
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
// sharing one planar pair (HOt, WOt). st indexes the scan's subtree list;
// the per-core region (hs, ws), the span [cp0, cp1) of its core-tile
// candidates in the worker's tile memo and the group's coarse bound terms
// are computed once, used first by the group bound and again — without
// recomputation — when the group expands. The group holds no pointers, so
// the GC never scans the worker's group list.
type candGroup struct {
	st, cp0, cp1 int32
	hot, wot     int
	hs, ws       int
	terms        c3p.GroupFloorTerms
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
	// The chiplet-tile candidates of the scan's subtrees, one span of
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
	// sts holds the worker's strided share of the subtrees.
	sts []subtree
}

// statePool recycles worker scratch across searches. The Clone-on-accept
// rule keeps every returned Option independent of the scratch, so a state
// can serve the next search as soon as its scan finishes.
var statePool = sync.Pool{New: func() any {
	return &searchState{planarAt: make(map[[2]int][2]int32), coreAt: make(map[[2]int][2]int32)}
}}

// takeStates draws one reset state per worker from the pool.
func takeStates(workers int) []*searchState {
	states := make([]*searchState, workers)
	for i := range states {
		ws := statePool.Get().(*searchState)
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
// the subtree shards, the one pricing kernel they all evaluate through and
// its rate card at the search's buffer sizes, which prices every bound and
// stage.
type search struct {
	l    workload.Layer
	hw   hardware.Config
	fab  *Fabric
	card energy.Card
	sts  []subtree
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
	return &search{l: l, hw: hw, fab: fab, card: fab.Card(&hw), sts: sts}
}

// groupBound prices the best case of every probe whose shape-product terms
// are bounded below by t: the terms are assembled through
// c3p.GroupTrafficFloor and totalled by the search's card. The scan prices
// one group at three levels, each with the terms minimized over a narrower
// candidate set: the full chiplet- and core-tile lists (the coarse bound the
// groups are sorted by), a single chiplet tile (channel terms and A-L2 fills
// exact) and a single (chiplet tile, core tile) cell (every term exact, the
// A-L1 and A-L2 fills being the fewest any temporal order incurs at hw's
// capacities). channelTerms, planarTerms and coreTerms fill in the minima,
// in that order, since the activation fills use the channel minima; a term
// that depends on only one of the two lists is computed once per list, not
// once per bound. Admissible because every term is ≤ its value for every
// member variant, the assembly mirrors the exact one branch for branch, and
// the energy model is linear with non-negative coefficients, so groupBound ≤
// stage energy = energy for every temporal variant of every member probe
// (pinned by TestGroupBoundAdmissible).
func (s *search) groupBound(st *subtree, t *c3p.GroupFloorTerms) float64 {
	var tr c3p.Traffic
	c3p.GroupTrafficFloor(&tr, &s.l, &s.hw, st.ps.kind, st.rotate, max(1, st.cs.csplit), t)
	return s.card.Total(&tr)
}

// channelTerms sets t's channel-trip minima over the chiplet-tile
// candidates cots of subtree st.
func (s *search) channelTerms(t *c3p.GroupFloorTerms, st *subtree, cots []int) {
	lanes, csplit := s.hw.Lanes, max(1, st.cs.csplit)
	t.C1Min, t.C2Min, t.C12Min, t.OLChanMin = math.MaxInt64, math.MaxInt64, math.MaxInt64, math.MaxInt64
	for _, cot := range cots {
		c1 := int64(ceilDiv(st.cop, cot))
		cos := ceilDiv(cot, csplit)
		c2 := int64(ceilDiv(cos, lanes))
		t.C1Min = min(t.C1Min, c1)
		t.C2Min = min(t.C2Min, c2)
		t.C12Min = min(t.C12Min, c1*c2)
		t.OLChanMin = min(t.OLChanMin, c1*c2*int64(min(lanes, cos)))
	}
}

// planarTerms sets the terms that the planar pair of g fixes, the A-L2
// fills at t's C1Min.
func (s *search) planarTerms(t *c3p.GroupFloorTerms, st *subtree, g *candGroup) {
	t.H1W1 = int64(ceilDiv(st.hop, g.hot)) * int64(ceilDiv(st.wop, g.wot))
	t.AL2Min = c3p.MinAL2Fills(&s.l, g.hot, g.wot, t.H1W1, t.C1Min, int64(s.hw.AL2Bytes))
}

// coreTerms sets t's core-tile minima over the candidates cps of group g,
// the A-L1 fills at t's C2Min.
func (s *search) coreTerms(t *c3p.GroupFloorTerms, g *candGroup, cps [][2]int) {
	l, hw := &s.l, &s.hw
	t.H2W2Min, t.PlanarCovMin, t.AL1Min = math.MaxInt64, math.MaxInt64, math.MaxInt64
	for _, cp := range cps {
		h2 := int64(ceilDiv(g.hs, cp[0]))
		w2 := int64(ceilDiv(g.ws, cp[1]))
		t.H2W2Min = min(t.H2W2Min, h2*w2)
		t.PlanarCovMin = min(t.PlanarCovMin, h2*int64(cp[0])*w2*int64(cp[1]))
		t.AL1Min = min(t.AL1Min,
			c3p.MinAL1Fills(l, hw.Vector, cp[0], cp[1], h2*w2, t.C2Min, int64(hw.AL1Bytes)))
	}
}

// scan evaluates a set of subtree shards in ascending bound order. It
// builds one group per (subtree, planar pair), prices each with the coarse
// group bound and sorts them by it, then expands the groups in that order:
// a group's chiplet tiles (subgroups) and then their core tiles (cells) are
// each skipped when their tighter bound exceeds the incumbent threshold
// min(dest.worst(), shared), and every feasible cell that remains is
// evaluated on the spot (evalCell). The first group whose bound exceeds the
// threshold ends the scan: the groups after it bound at least as high, and
// the threshold only ever decreases, so none of them could place.
// Spanning all of a worker's subtrees with one scan (rather than one per
// subtree) lets the incumbent converge before weak subtrees spend anything.
// Pruning compares bounds strictly (>): an exact tie with the threshold must
// still be evaluated because the Compare tie-break could admit it. Result
// identity does not depend on visit order, only on the candidate set, which
// this generator shares with the exhaustive walker.
func (s *search) scan(sts []subtree, ws *searchState, dest *topK, shared *minBound) {
	l, hw := &s.l, &s.hw
	groups, order := ws.groups[:0], ws.order[:0]
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
			g := candGroup{st: int32(si), hot: hot, wot: wot,
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
			order = append(order, groupRef{bound: s.groupBound(st, &g.terms), g: int32(len(groups))})
			groups = append(groups, g)
		}
	}
	slices.SortFunc(order, func(a, b groupRef) int { return cmp.Compare(a.bound, b.bound) })

	var sh mapping.Shape // the shape of the cell being evaluated
	for _, ref := range order {
		if ref.bound > min(dest.worst(), shared.Load()) {
			break
		}
		g := &groups[ref.g]
		ws.tally.popped++
		st := &sts[g.st]
		sp := ws.cotSpan[g.st]
		cots, cps := ws.cots[sp[0]:sp[1]], ws.pairs[g.cp0:g.cp1]
		for i := range cots {
			// A single chiplet tile makes the channel-product terms and the
			// A-L2 fills exact.
			sub := g.terms
			s.channelTerms(&sub, st, cots[i:i+1])
			s.planarTerms(&sub, st, g)
			if s.groupBound(st, &sub) > min(dest.worst(), shared.Load()) {
				continue
			}
			cell := sub
			for j := range cps {
				// With both tile axes fixed every term is exact, A-L1 and
				// A-L2 fills included, so the cell bound is priced through
				// the cheap group assembly before the feasibility check runs.
				s.coreTerms(&cell, g, cps[j:j+1])
				if s.groupBound(st, &cell) > min(dest.worst(), shared.Load()) {
					continue
				}
				probe := st.base()
				probe.COt, probe.HOt, probe.WOt = cots[i], g.hot, g.wot
				probe.HOc, probe.WOc = cps[j][0], cps[j][1]
				if probe.FeasibleShape(l, hw, &sh) {
					s.evalCell(&probe, &sh, ws, dest, shared)
				}
			}
		}
	}
	ws.groups, ws.order = groups[:0], order[:0]
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
// sorted by energy (ties broken by mapping.Compare). It is
// result-identical to SearchExhaustive — enforced by randomized equivalence
// tests — but scans the space in ascending order of admissible lower bounds,
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
