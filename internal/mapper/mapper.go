// Package mapper implements NN-Baton's post-design flow (§IV-D): the
// exhaustive per-layer search over the hierarchical mapping space — two
// package-level and three chiplet-level spatial primitives, the 2×2 temporal
// orders, partition patterns with different height:width ratios, and tile
// sizes — evaluated through the C³P engine.
package mapper

import (
	"fmt"
	"slices"

	"nnbaton/internal/c3p"
	"nnbaton/internal/energy"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapping"
	"nnbaton/internal/workload"
)

// Option is one evaluated mapping candidate.
type Option struct {
	Analysis *c3p.Analysis
	Energy   energy.Breakdown
	Cycles   int64
}

// SpatialCombo renders the (package, chiplet) partition pair, e.g. "(C,H)" —
// the x-axis categories of Fig 11.
func (o Option) SpatialCombo() string {
	return fmt.Sprintf("(%v,%v)", o.Analysis.Map.PackageSpatial, o.Analysis.Map.ChipletSpatial)
}

// ceilDiv returns ⌈a/b⌉ for positive b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// splitSeries are the tiling factors tried per dimension.
var splitSeries = []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}

// tileCandidates appends to dst the deduplicated candidate tile extents
// ⌈dim/n⌉ for the split series, largest first. The tile generators append
// into caller-owned storage and dedupe by scanning what they appended (at
// most a few dozen entries), so the search can keep their lists in reused
// worker scratch.
func tileCandidates(dst []int, dim, limit int) []int {
	base := len(dst)
	for _, n := range splitSeries {
		if n > dim {
			break
		}
		t := ceilDiv(dim, n)
		if t > limit || slices.Contains(dst[base:], t) {
			continue
		}
		dst = append(dst, t)
	}
	if len(dst) == base && dim >= 1 {
		dst = append(dst, min(dim, max(1, limit)))
	}
	return dst
}

// planarPairs appends to dst the (HOt, WOt) candidates for a region: a
// square-biased series plus row- and column-stripe variants (the pattern
// ratios of §IV-C).
func planarPairs(dst [][2]int, h, w int) [][2]int {
	base := len(dst)
	add := func(th, tw int) {
		p := [2]int{th, tw}
		if th < 1 || tw < 1 || th > h || tw > w || slices.Contains(dst[base:], p) {
			return
		}
		dst = append(dst, p)
	}
	for _, n := range [...]int{1, 2, 4, 8, 16} {
		add(ceilDiv(h, n), ceilDiv(w, n)) // square-biased
		add(ceilDiv(h, n), w)             // row stripes
		add(h, ceilDiv(w, n))             // column stripes
		add(ceilDiv(h, n*n), w)           // fine row stripes
	}
	return dst
}

// coreTilePairs appends to dst the (HOc, WOc) candidates of an hs×ws
// per-core region whose core-tile needs — the O-L1 psums and the A-L1
// slice of mapping.BufferNeeds — fit hw. The core tile alone fixes both.
func coreTilePairs(dst [][2]int, l *workload.Layer, hw *hardware.Config, hs, ws int) [][2]int {
	maxElems := max(1, hw.OL1Bytes/int(mapping.CoreOL1Need(hw, 1, 1)))
	base := len(dst)
	add := func(th, tw int) {
		th, tw = min(th, hs), min(tw, ws)
		p := [2]int{th, tw}
		if th < 1 || tw < 1 || mapping.CoreOL1Need(hw, th, tw) > int64(hw.OL1Bytes) ||
			mapping.CoreAL1Need(l, hw, th, tw) > int64(hw.AL1Bytes) ||
			slices.Contains(dst[base:], p) {
			return
		}
		dst = append(dst, p)
	}
	// Largest feasible square, then smaller squares and stripes.
	for s := 8; s >= 1; s-- {
		add(s, s)
	}
	add(1, maxElems)
	add(1, min(maxElems, ws))
	add(2, maxElems/2)
	add(1, 4)
	return dst
}

// chipletSplit is one chiplet-level spatial alternative: its csplit ways
// of pattern.Parts() cores each cover the chiplet's cores.
type chipletSplit struct {
	kind    mapping.Spatial
	csplit  int
	pattern mapping.Pattern
}

// maxGridPatterns sizes the stack buffers the split enumerations collect
// grid patterns in; a core or chiplet count with more divisors spills to
// the heap.
const maxGridPatterns = 16

// chipletSplits appends to dst the chiplet-level spatial alternatives for
// a hardware configuration: C, P (all grid patterns) and H (all proper
// csplit×grid factorizations).
func chipletSplits(dst []chipletSplit, hw hardware.Config) []chipletSplit {
	var buf [maxGridPatterns]mapping.Pattern
	dst = append(dst, chipletSplit{mapping.SpatialC, hw.Cores, mapping.Pattern{Rows: 1, Cols: 1}})
	for _, p := range mapping.GridPatterns(buf[:0], hw.Cores) {
		dst = append(dst, chipletSplit{mapping.SpatialP, 1, p})
	}
	for cs := 2; cs < hw.Cores; cs++ {
		if hw.Cores%cs != 0 {
			continue
		}
		for _, p := range mapping.GridPatterns(buf[:0], hw.Cores/cs) {
			dst = append(dst, chipletSplit{mapping.SpatialH, cs, p})
		}
	}
	return dst
}

// packageSplit is one package-level spatial alternative.
type packageSplit struct {
	kind    mapping.Spatial
	pattern mapping.Pattern
}

// packageSplits appends to dst the package-level spatial alternatives: C
// plus every grid pattern of the P-type planar split.
func packageSplits(dst []packageSplit, hw hardware.Config) []packageSplit {
	var buf [maxGridPatterns]mapping.Pattern
	dst = append(dst, packageSplit{mapping.SpatialC, mapping.Pattern{}})
	for _, p := range mapping.GridPatterns(buf[:0], hw.Chiplets) {
		dst = append(dst, packageSplit{mapping.SpatialP, p})
	}
	return dst
}

// Config tunes the search.
type Config struct {
	// KeepTop retains the best K options (by energy) in SearchAll; unset
	// (<= 0), it takes WithDefaults' default.
	KeepTop int
	// Rotate controls the rotating-transfer primitive (default on for
	// multichip packages; disable for the ablation study).
	DisableRotation bool
	// Workers bounds the intra-layer shard parallelism of SearchAll
	// (<=0 means GOMAXPROCS; 1 forces the serial path). Any value yields
	// identical results.
	Workers int
	// Fault is the ring-relevant degradation of the fabric the search maps
	// onto: hw describes the surviving uniform capability, and Fault names
	// the physical positions the directional ring must detour around
	// (hardware.Fabric.Envelopes produces matched pairs). The zero mask is
	// the healthy identity. Fault participates in the engine's memoization
	// key, so healthy and degraded searches never alias.
	Fault hardware.FaultMask
	// Counters, when non-nil, receives the search funnel tallies
	// (generated / bound-pruned / stage-pruned / evaluated candidates).
	Counters *Counters
}

// WithDefaults returns cfg with an unset KeepTop at its default of 8: the
// KeepTop SearchAll and SearchExhaustive search with, and the one the
// engine keys its memo on, so an unset and an explicit 8 share one entry.
func (cfg Config) WithDefaults() Config {
	if cfg.KeepTop <= 0 {
		cfg.KeepTop = 8
	}
	return cfg
}

// Search returns the optimal mapping option for one layer, or an error if no
// valid mapping exists.
func Search(l workload.Layer, hw hardware.Config, cm *hardware.CostModel, cfg Config) (Option, error) {
	cfg.KeepTop = 1
	opts := SearchAll(l, hw, cm, cfg)
	if len(opts) == 0 {
		return Option{}, fmt.Errorf("mapper: no valid mapping for %s on %s", l.String(), hw.Tuple())
	}
	return opts[0], nil
}

// subtree is one (package split, chiplet split) shard of the mapping space —
// the unit of work the parallel search distributes across workers. The
// post-package-split region extents are precomputed so shards are
// self-contained.
type subtree struct {
	ps            packageSplit
	cs            chipletSplit
	hop, wop, cop int // region after the package split
	rotate        bool
	// floor holds the subtree's bound factors; the pruned search sets it
	// (newSearch), the exhaustive walk leaves it unset.
	floor c3p.SubtreeFloor
}

// base returns the subtree's probe template: its spatial splits and
// rotation, with every tile still unset.
func (st *subtree) base() mapping.Mapping {
	return mapping.Mapping{
		PackageSpatial: st.ps.kind, PackagePattern: st.ps.pattern, Rotate: st.rotate,
		ChipletSpatial: st.cs.kind, ChipletCSplit: st.cs.csplit, ChipletPattern: st.cs.pattern,
	}
}

// subtrees appends to dst every shard of the mapping space for a layer,
// skipping package splits the layer geometry rules out (the same rejects the
// exhaustive loop applies). Its order is the canonical enumeration order.
func subtrees(dst []subtree, l workload.Layer, hw hardware.Config, cfg Config) []subtree {
	rotate := hw.Chiplets > 1 && !cfg.DisableRotation
	// The split lists are scratch: collect them on the stack.
	var cbuf [4 * maxGridPatterns]chipletSplit
	var pbuf [maxGridPatterns + 1]packageSplit
	css := chipletSplits(cbuf[:0], hw)
	pss := packageSplits(pbuf[:0], hw)
	for _, ps := range pss {
		hop, wop, cop := l.HO, l.WO, l.CO
		if ps.kind == mapping.SpatialC {
			if l.CO < hw.Chiplets {
				continue
			}
			cop = ceilDiv(l.CO, hw.Chiplets)
		} else {
			if ps.pattern.Rows > l.HO || ps.pattern.Cols > l.WO {
				continue
			}
			hop = ceilDiv(l.HO, ps.pattern.Rows)
			wop = ceilDiv(l.WO, ps.pattern.Cols)
		}
		for _, cs := range css {
			dst = append(dst, subtree{ps: ps, cs: cs, hop: hop, wop: wop, cop: cop, rotate: rotate})
		}
	}
	return dst
}

// walk yields every temporal-free probe mapping of the subtree. The tile
// generators are hoisted to the outermost level they depend on — cot
// candidates depend only on the region, core tiles only on the planar pair —
// so the inner loop touches no maps and performs no allocation. Both the
// pruned search and the exhaustive reference enumerate through this one
// walker, which is what guarantees they see identical candidate sets.
func (st subtree) walk(l workload.Layer, hw hardware.Config, yield func(probe mapping.Mapping)) {
	base := st.base()
	cots := tileCandidates(nil, st.cop, st.cop)
	for _, pp := range planarPairs(nil, st.hop, st.wop) {
		hot, wot := pp[0], pp[1]
		if st.cs.pattern.Rows > hot || st.cs.pattern.Cols > wot {
			continue
		}
		hs, ws := ceilDiv(hot, st.cs.pattern.Rows), ceilDiv(wot, st.cs.pattern.Cols)
		cps := coreTilePairs(nil, &l, &hw, hs, ws)
		for _, cot := range cots {
			if cot < st.cs.csplit {
				continue
			}
			for _, cp := range cps {
				probe := base
				probe.COt, probe.HOt, probe.WOt = cot, hot, wot
				probe.HOc, probe.WOc = cp[0], cp[1]
				yield(probe)
			}
		}
	}
}

// forEachTemporal expands a probe into its live temporal-order variants.
// Every other mapping property — feasibility, shape, the admissible lower
// bound — is temporal-invariant, so callers check those once per probe.
func forEachTemporal(probe mapping.Mapping, sh mapping.Shape, yield func(mapping.Mapping)) {
	for _, pt := range temporalChoices(sh.C1, sh.H1*sh.W1) {
		for _, ct := range temporalChoices(sh.C2, sh.H2*sh.W2) {
			m := probe
			m.PackageTemporal, m.ChipletTemporal = pt, ct
			yield(m)
		}
	}
}

// temporalVariants counts the mappings forEachTemporal yields for a shape.
func temporalVariants(sh *mapping.Shape) int64 {
	n := int64(len(temporalChoices(sh.C1, sh.H1*sh.W1)))
	return n * int64(len(temporalChoices(sh.C2, sh.H2*sh.W2)))
}

// Temporal-order menus, shared as package-level backing arrays so
// temporalChoices is allocation-free.
var (
	bothOrders  = [...]mapping.Temporal{mapping.ChannelPriority, mapping.PlanePriority}
	channelOnly = [...]mapping.Temporal{mapping.ChannelPriority}
)

// temporalChoices returns both loop orders when a level has live channel and
// planar loops, and a single order otherwise (the nest is order-invariant).
func temporalChoices(cTrips, planarTrips int) []mapping.Temporal {
	if cTrips > 1 && planarTrips > 1 {
		return bothOrders[:]
	}
	return channelOnly[:]
}

// enumerate walks the mapping space, evaluating every valid candidate
// through the pricing kernel, and yields each option. It shares the subtree
// walker — and the fault-masked fabric — with the pruned search, so the two
// paths stay result-identical under any mask and any topology.
func enumerate(l workload.Layer, hw hardware.Config, cm *hardware.CostModel, cfg Config, yield func(Option)) {
	fab, err := NewFabric(hw, cfg.Fault, cm)
	if err != nil {
		return
	}
	consider := func(m mapping.Mapping) {
		if o, err := fab.Evaluate(l, hw, m); err == nil {
			yield(o)
		}
	}
	for _, st := range subtrees(nil, l, hw, cfg) {
		st.walk(l, hw, func(probe mapping.Mapping) {
			forEachTemporal(probe, probe.Shape(&l, &hw), consider)
		})
	}
}

// SearchExhaustive evaluates every candidate of the mapping space — no
// pruning, no parallelism, no scratch reuse — and returns the best KeepTop
// options in the same deterministic (energy, mapping.Compare) order as
// SearchAll. It is the reference implementation the randomized equivalence
// tests hold SearchAll to, and the baseline of the search benchmarks.
func SearchExhaustive(l workload.Layer, hw hardware.Config, cm *hardware.CostModel, cfg Config) []Option {
	cfg = cfg.WithDefaults()
	top := newTopK(cfg.KeepTop)
	enumerate(l, hw, cm, cfg, top.add)
	return top.opts
}

// ModelResult aggregates the optimal per-layer mappings over a whole model.
type ModelResult struct {
	Model   workload.Model
	Layers  []Option
	Energy  energy.Breakdown
	Cycles  int64
	Skipped []string // layers with no valid mapping
}

// Complete reports whether every layer of the model mapped: the aggregate
// Energy/Cycles only describe the whole model when this holds. Flows that
// compare models across configurations (CompareSimba, the DSE validity
// check) must reject incomplete results rather than compare unequal work.
func (r ModelResult) Complete() bool {
	return len(r.Skipped) == 0 && len(r.Layers) == len(r.Model.Layers)
}

// SearchModel maps every layer of a model with the per-layer optimal
// strategy ("NN-Baton provides a distinct mapping strategy layer-wise",
// §VI-A1) and aggregates energy and runtime.
//
// This is the sequential, uncached reference path; production flows route
// through engine.EvalModel, which parallelizes the per-layer search and
// memoizes it on layer shape while producing bit-identical results.
func SearchModel(m workload.Model, hw hardware.Config, cm *hardware.CostModel, cfg Config) (ModelResult, error) {
	res := ModelResult{Model: m}
	for _, l := range m.Layers {
		opt, err := Search(l, hw, cm, cfg)
		if err != nil {
			res.Skipped = append(res.Skipped, l.Name)
			continue
		}
		res.Layers = append(res.Layers, opt)
		res.Energy = res.Energy.Add(opt.Energy)
		res.Cycles += opt.Cycles
	}
	if len(res.Layers) == 0 {
		return res, fmt.Errorf("mapper: no layer of %s maps onto %s", m.Name, hw.Tuple())
	}
	return res, nil
}
