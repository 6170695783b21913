package dse

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"nnbaton/internal/c3p"
	"nnbaton/internal/energy"
	"nnbaton/internal/engine"
	"nnbaton/internal/faults"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapper"
	"nnbaton/internal/workload"
)

// PointFailure records one compute configuration the exploration could not
// evaluate — every anchor invalid, a search fault, or an isolated panic —
// with the reason, so a degraded sweep reports what it skipped instead of
// silently shrinking.
type PointFailure struct {
	HW  hardware.Config
	Err string
}

// String renders the failure as one line.
func (f PointFailure) String() string {
	return fmt.Sprintf("%s: %s", f.HW.Tuple(), f.Err)
}

// ExploreResult is the Fig 15 full design-space exploration for one model.
type ExploreResult struct {
	Model string
	// Swept counts every (compute, memory) point considered, valid or not.
	Swept int
	// Points holds the valid implementations (every layer mappable), in
	// canonical configuration order regardless of evaluation interleaving.
	Points []Point
	// Failed lists the compute configurations that could not be evaluated,
	// with reasons, in canonical order.
	Failed []PointFailure
	// Replayed counts compute configurations served from the checkpoint
	// journal instead of re-evaluated.
	Replayed int
	// Best is the lowest-EDP point meeting the area constraint.
	Best    Point
	HasBest bool
}

// ParetoFront returns the area-vs-EDP Pareto-optimal subset of the valid
// points (the region left of the grey trend line in Fig 15: designs whose
// memory allocation is not redundant), in the order the points appear in
// Points.
//
// The scan sorts an index of the points by (area asc, EDP asc) and walks it
// once, keeping the running minimum EDP: a point is dominated iff a
// strictly-smaller-area point has EDP <= its own, or an equal-area point has
// strictly smaller EDP. O(n log n) against the O(n²) pairwise test — the Fig
// 15 sweep produces tens of thousands of valid points, where the quadratic
// scan was the post-processing bottleneck.
func (r ExploreResult) ParetoFront() []Point {
	n := len(r.Points)
	if n == 0 {
		return []Point{}
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		pa, pb := r.Points[idx[a]], r.Points[idx[b]]
		if pa.ChipletAreaMM2 != pb.ChipletAreaMM2 {
			return pa.ChipletAreaMM2 < pb.ChipletAreaMM2
		}
		return pa.EDP() < pb.EDP()
	})
	keep := make([]bool, n)
	kept := 0
	bestPrev := -1.0 // min EDP over strictly smaller areas; <0 = none yet
	for i := 0; i < n; {
		// Process one equal-area group against the strictly-smaller prefix.
		j := i
		area := r.Points[idx[i]].ChipletAreaMM2
		groupMin := -1.0
		for ; j < n && r.Points[idx[j]].ChipletAreaMM2 == area; j++ {
			p := r.Points[idx[j]]
			e := p.EDP()
			if (bestPrev < 0 || e < bestPrev) && (groupMin < 0 || e <= groupMin) {
				keep[idx[j]] = true
				kept++
			}
			if groupMin < 0 || e < groupMin {
				groupMin = e
			}
		}
		if bestPrev < 0 || groupMin < bestPrev {
			bestPrev = groupMin
		}
		i = j
	}
	front := make([]Point, 0, kept)
	for i, p := range r.Points {
		if keep[i] {
			front = append(front, p)
		}
	}
	return front
}

// exploreRecord is the checkpoint-journal form of one compute
// configuration's exploration.
type exploreRecord struct {
	Points []Point `json:"points,omitempty"`
	Swept  int     `json:"swept"`
	Err    string  `json:"err,omitempty"`
}

// exploreKey is the checkpoint key of one compute configuration: the model,
// the study parameters and the full memory space, so a journal only ever
// replays into the exploration that produced it.
func exploreKey(model workload.Model, space Space, totalMACs int, areaLimitMM2 float64, comp hardware.Config) string {
	return fmt.Sprintf("explore|%s@%d/%d|macs%d|area%g|space%v%v%v%v|%s",
		model.Name, model.Resolution, len(model.Layers), totalMACs, areaLimitMM2,
		space.OL1PerLane, space.AL1, space.WL1, space.AL2, comp.Tuple())
}

// lessHW is the canonical configuration order of exploration output:
// compute tuple first, then the memory allocation.
func lessHW(a, b hardware.Config) bool {
	if a.Chiplets != b.Chiplets {
		return a.Chiplets < b.Chiplets
	}
	if a.Cores != b.Cores {
		return a.Cores < b.Cores
	}
	if a.Lanes != b.Lanes {
		return a.Lanes < b.Lanes
	}
	if a.Vector != b.Vector {
		return a.Vector < b.Vector
	}
	if a.OL1Bytes != b.OL1Bytes {
		return a.OL1Bytes < b.OL1Bytes
	}
	if a.AL1Bytes != b.AL1Bytes {
		return a.AL1Bytes < b.AL1Bytes
	}
	if a.WL1Bytes != b.WL1Bytes {
		return a.WL1Bytes < b.WL1Bytes
	}
	return a.AL2Bytes < b.AL2Bytes
}

// Explore runs the Fig 15 pre-design sweep for one model: every compute
// allocation of totalMACs crossed with every Table II memory combination.
//
// For tractability the per-layer mapping search runs once per compute
// configuration at a few anchor memory allocations (minimum, proportional,
// maximum); the pooled candidate mappings are then re-priced at every memory
// point through the C³P threshold step functions (TrafficAt), which is exact
// for a fixed mapping. Invalid cases (A-L2 smaller than A-L1, buffers unable
// to stage any candidate) are skipped, as §VI-B2 prescribes.
//
// The anchor harvest goes through the engine's memoized search, so repeated
// layer shapes — and any (shape, anchor) pair already searched by an earlier
// study on the same evaluator — are never recomputed.
//
// A compute configuration that cannot be evaluated — no valid anchor, a
// search fault, an isolated panic — is recorded in Failed rather than
// aborting the study; only context cancellation aborts. With a checkpoint
// journal on the evaluator, each completed compute configuration is
// journaled and a resumed exploration replays it; Points and Failed come
// back in canonical configuration order either way, so a resumed study is
// byte-identical to an uninterrupted one.
func Explore(ctx context.Context, model workload.Model, space Space, totalMACs int,
	areaLimitMM2 float64, eng *engine.Evaluator) (ExploreResult, error) {
	defer eng.Obs().Span("dse.explore")()
	computes := space.ComputeConfigs(totalMACs)
	if len(computes) == 0 {
		return ExploreResult{}, fmt.Errorf("dse: no compute allocation reaches %d MACs", totalMACs)
	}
	return exploreComputes(ctx, model, space, totalMACs, areaLimitMM2, eng, computes, "explore "+model.Name, priceGrid)
}

// ExploreRange explores the compute configurations with canonical indices in
// [lo, hi) — one shard of a distributed study. Journal keys and record
// formats are identical to Explore's, so the shard journals of an N-worker
// sweep merge (ckpt.MergeFiles) into exactly the journal a single-process
// Explore writes.
func ExploreRange(ctx context.Context, model workload.Model, space Space, totalMACs int,
	areaLimitMM2 float64, eng *engine.Evaluator, lo, hi int) (ExploreResult, error) {
	defer eng.Obs().Span("dse.explore_range")()
	computes := space.ComputeConfigs(totalMACs)
	if len(computes) == 0 {
		return ExploreResult{}, fmt.Errorf("dse: no compute allocation reaches %d MACs", totalMACs)
	}
	if lo < 0 || hi < lo || hi > len(computes) {
		return ExploreResult{}, fmt.Errorf("dse: shard range [%d,%d) outside the %d compute configurations", lo, hi, len(computes))
	}
	label := fmt.Sprintf("explore %s [%d,%d)", model.Name, lo, hi)
	return exploreComputes(ctx, model, space, totalMACs, areaLimitMM2, eng, computes[lo:hi], label, priceGrid)
}

// exploreComputes is the shared body of Explore and ExploreRange: evaluate
// (or replay) each given compute configuration through engine.RunPoints,
// restore canonical order, and pick the best point of the covered range.
// price re-prices each compute configuration's harvested pool across the
// memory grid.
func exploreComputes(ctx context.Context, model workload.Model, space Space, totalMACs int,
	areaLimitMM2 float64, eng *engine.Evaluator, computes []hardware.Config, label string, price gridPricer) (ExploreResult, error) {
	// A point is one compute configuration (the unit of anchor harvesting);
	// the memory cross-product within it is pure re-pricing.
	outs, err := engine.RunPoints(ctx, eng, engine.Points[exploreRecord, exploreRecord]{
		Label: label, Span: "dse.explore_compute", Site: "dse.explore_compute", N: len(computes),
		Key: func(i int) string { return exploreKey(model, space, totalMACs, areaLimitMM2, computes[i]) },
		Op:  func(i int) string { return computes[i].Tuple() },
		Eval: func(ctx context.Context, i int, rec *exploreRecord) error {
			return exploreCompute(ctx, model, space, computes[i], areaLimitMM2, eng, price, rec)
		},
		Record: func(o engine.Outcome[exploreRecord]) exploreRecord {
			rec := o.Val
			if o.Err != nil {
				rec.Err = o.Err.Error()
			}
			return rec
		},
		Replay: func(_ int, rec exploreRecord) engine.Outcome[exploreRecord] {
			o := engine.Outcome[exploreRecord]{Val: rec}
			if rec.Err != "" {
				o.Err = errors.New(rec.Err)
			}
			return o
		},
	})
	if err != nil {
		return ExploreResult{}, err
	}
	// Sized up front: growing the slice by append while the per-configuration
	// points are still held would need about twice the memory of one copy.
	n := 0
	for _, o := range outs {
		n += len(o.Val.Points)
	}
	res := ExploreResult{Model: model.Name, Points: slices.Grow([]Point(nil), n)}
	for i, o := range outs {
		res.Swept += o.Val.Swept
		res.Points = append(res.Points, o.Val.Points...)
		if o.Err != nil {
			res.Failed = append(res.Failed, PointFailure{HW: computes[i], Err: o.Err.Error()})
		}
		if o.Replayed {
			res.Replayed++
		}
	}

	// A custom space may list its sizes out of order; restore the canonical
	// order so output does not depend on how the space was written.
	sort.SliceStable(res.Points, func(i, j int) bool { return lessHW(res.Points[i].HW, res.Points[j].HW) })
	sort.SliceStable(res.Failed, func(i, j int) bool { return lessHW(res.Failed[i].HW, res.Failed[j].HW) })

	for _, p := range res.Points {
		if !p.MeetsArea {
			continue
		}
		if !res.HasBest || p.EDP() < res.Best.EDP() {
			res.Best, res.HasBest = p, true
		}
	}
	return res, nil
}

// anchorConfigs returns the memory allocations at which the mapping search
// harvests candidates for one compute configuration.
func anchorConfigs(space Space, comp hardware.Config) []hardware.Config {
	maxOf := func(xs []int) int { return xs[len(xs)-1] }
	minOf := func(xs []int) int { return xs[0] }
	mk := func(ol1PerLane, al1, wl1, al2 int) hardware.Config {
		hw := comp
		hw.OL1Bytes = ol1PerLane * comp.Lanes
		hw.AL1Bytes = al1
		hw.WL1Bytes = wl1
		hw.AL2Bytes = al2
		hw.OL2Bytes = al2 / 2
		return hw
	}
	return []hardware.Config{
		mk(maxOf(space.OL1PerLane), maxOf(space.AL1), maxOf(space.WL1), maxOf(space.AL2)),
		mk(minOf(space.OL1PerLane), minOf(space.AL1), minOf(space.WL1), minOf(space.AL2)),
		comp.WithProportionalMemory(hardware.DefaultProportion()),
	}
}

// exploreCompute harvests one compute configuration's candidate mappings
// at the anchor allocations and re-prices them across the memory grid into
// rec. A configuration without a valid memory point fails.
func exploreCompute(ctx context.Context, model workload.Model, space Space, comp hardware.Config,
	areaLimitMM2 float64, eng *engine.Evaluator, price gridPricer, rec *exploreRecord) error {
	if err := faults.InjectContext(ctx, "dse.explore_compute", comp.Tuple()); err != nil {
		return err
	}
	// Harvest mapping candidates at the anchor allocations, once per
	// distinct layer shape: the engine hands equal shapes the same search
	// results, so a repeated layer's pool is its first occurrence's slice.
	// The engine also coalesces identical anchor searches issued by
	// concurrent compute configurations.
	pool := make([][]*c3p.Analysis, len(model.Layers))
	first := make([]int, len(model.Layers)) // layer → first layer of its shape
	seen := make(map[engine.ShapeKey]int)
	for li, l := range model.Layers {
		key := engine.ShapeOf(l)
		if _, ok := seen[key]; !ok {
			seen[key] = li
		}
		first[li] = seen[key]
	}
	validAnchors := 0
	for _, anchor := range anchorConfigs(space, comp) {
		if anchor.Validate() != nil {
			continue
		}
		validAnchors++
		for li, l := range model.Layers {
			if first[li] != li {
				continue
			}
			opts, err := eng.SearchAll(ctx, l, anchor, mapper.Config{KeepTop: 4})
			if err != nil {
				return err
			}
			for _, opt := range opts {
				pool[li] = append(pool[li], opt.Analysis)
			}
		}
	}
	if validAnchors == 0 {
		return fmt.Errorf("dse: no valid anchor configuration for %s", comp.Tuple())
	}
	for li := range pool {
		pool[li] = pool[first[li]]
	}
	// Every memory point shares the compute configuration's interconnect, so
	// one pricing kernel serves the whole memory cross-product.
	fab, err := mapper.NewFabric(comp, hardware.FaultMask{}, eng.CostModel())
	if err != nil {
		return err
	}
	rec.Points, rec.Swept = price(model, space, comp, pool, areaLimitMM2, fab, eng), space.MemoryPoints()
	if len(rec.Points) == 0 {
		return fmt.Errorf("dse: no valid memory point for %s", comp.Tuple())
	}
	return nil
}

// gridPricer re-prices one compute configuration's per-layer candidate pool
// at every memory point of the space and returns the valid points in
// O-L1 → A-L1 → W-L1 → A-L2 order.
type gridPricer func(model workload.Model, space Space, comp hardware.Config, pool [][]*c3p.Analysis,
	areaLimitMM2 float64, fab *mapper.Fabric, eng *engine.Evaluator) []Point

// priceGrid is the gridPricer of Explore. Traffic and cycles depend on the
// A-L1, W-L1 and A-L2 sizes but not on O-L1's, so it walks the grid one
// (A-L1, W-L1, A-L2) cell at a time and prices every O-L1 size of a cell
// together. Each cell is timed once and observed as one dse.memory_point
// per O-L1 size, an equal share each.
func priceGrid(model workload.Model, space Space, comp hardware.Config, pool [][]*c3p.Analysis,
	areaLimitMM2 float64, fab *mapper.Fabric, eng *engine.Evaluator) []Point {
	if space.MemoryPoints() == 0 {
		return nil
	}
	g := grid{al1: space.AL1, wl1: space.WL1, al2: space.AL2, ol1: make([]int, len(space.OL1PerLane))}
	for k, perLane := range space.OL1PerLane {
		g.ol1[k] = perLane * comp.Lanes
	}
	rp := newRepricer(model, comp, pool, g, areaLimitMM2, fab, eng.CostModel())
	defer rp.release()
	phase := eng.Obs().Phase("dse.memory_point")
	for i, al1 := range g.al1 {
		for j := range g.wl1 {
			for a, al2 := range g.al2 {
				// §VI-B2 invalid-case pruning.
				if al2 < al1 {
					continue
				}
				var t0 time.Time
				if phase != nil {
					t0 = time.Now()
				}
				rp.priceCell(i, j, a)
				if phase != nil {
					share := time.Since(t0) / time.Duration(len(g.ol1))
					for range g.ol1 {
						phase.Observe(share)
					}
				}
			}
		}
	}
	eng.Obs().Counter("dse.candidates_priced").Add(rp.priced)
	eng.Obs().Counter("dse.candidates_simulated").Add(rp.simulated)
	return rp.points()
}

// grid is the buffer axes of a memory grid in bytes: per-core A-L1 and W-L1
// sizes, per-chiplet A-L2 sizes (each with an O-L2 of half its size) and
// per-core O-L1 sizes.
type grid struct {
	al1, wl1, al2, ol1 []int
}

// The grid tables. On the memory grid a fixed mapping's traffic, and so its
// level sums, split by buffer axis (c3p.Analysis.Fixed and the axis parts),
// so each candidate has one entry per axis value: the integer parts of the
// DRAM, die-to-die and A-L2 sums, which add parts of more than one axis,
// and the priced terms that depend on that axis alone. Candidate c's entry
// for the x-th value of an axis is at x·len(cands) + c, so one cell reads
// each axis' entries of all candidates in order.

// al1Entry is a candidate at one A-L1 size: the A-L2 reads its A-L1 fills
// cause, its A-L1 term, and whether its A-L1 need fits.
type al1Entry struct {
	al2  int64
	pj   float64
	fits bool
}

// wl1Entry is a candidate at one W-L1 size: its weight reads from DRAM and
// physical die-to-die weight bytes, its W-L1 term, and whether its W-L1
// and rotating-chunk needs fit.
type wl1Entry struct {
	dram, d2d int64
	pj        float64
	fits      bool
}

// al2Entry is a candidate at one A-L2 size: its DRAM, die-to-die and A-L2
// sums without the W-L1 and A-L1 parts (the fixed part folded in), its O-L2
// term, and whether its A-L2 need fits.
type al2Entry struct {
	dram, d2d, al2 int64
	ol2            float64
	fits           bool
}

// candidate is one pooled mapping with its O-L1 need and its MAC term.
type candidate struct {
	a   *c3p.Analysis
	ol1 int64
	mac float64
}

// winner is the lowest-total candidate of one (shape, O-L1 size) at the
// cell being priced — c < 0 when none fits — with its breakdown and cycles
// once simulated.
type winner struct {
	c      int
	total  float64
	br     energy.Breakdown
	cycles int64
}

// repricer prices one compute configuration's candidate pool across memory
// cells. Layers of equal engine.ShapeOf share one candidate list — the
// engine hands them the same search results — so each shape is priced once
// per cell and its winner reused by every layer of that shape. Repricers are
// pooled, so their tables are reused across compute configurations.
type repricer struct {
	g            grid
	comp         hardware.Config
	areaLimitMM2 float64
	fab          *mapper.Fabric
	cm           *hardware.CostModel

	shapeIndex map[engine.ShapeKey]int
	layerShape []int // model layer → shape index
	// shapeEnd[si] ends shape si's candidates in cands; they start where
	// shape si−1's end.
	shapeEnd []int
	cands    []candidate // per shape, in pool order
	al1      []al1Entry
	wl1      []wl1Entry
	al2      []al2Entry
	ol1      []float64 // O-L1 term per O-L1 size and candidate
	// One rate card per axis value, each at the grid's first size on the
	// other axes: an axis term's rate depends on that axis' size only.
	al1Cards, wl1Cards, al2Cards, ol1Cards []energy.Card

	win    []winner  // [shape*len(g.ol1) + k] at the current cell
	byOL1  [][]Point // valid points per O-L1 size, in cell order
	priced int64     // candidates whose total a cell priced
	// simulated counts the cell winners that were simulated: one per
	// distinct winner of each shape and cell.
	simulated int64
}

var repricers = sync.Pool{New: func() any { return new(repricer) }}

// newRepricer builds the per-shape candidate lists of one compute
// configuration, in the pool's (anchor) order, and their grid tables,
// without the candidates that are structurally infeasible on comp. The
// simulator rejects a mapping exactly when it has no package workload
// position, whatever the buffer sizes, so those are dropped here too and a
// cell's winner always simulates. Later copies of an equal mapping are
// kept: they can never displace the first copy. Call release when done.
func newRepricer(model workload.Model, comp hardware.Config, pool [][]*c3p.Analysis, g grid,
	areaLimitMM2 float64, fab *mapper.Fabric, cm *hardware.CostModel) *repricer {
	r := repricers.Get().(*repricer)
	r.g, r.comp, r.areaLimitMM2, r.fab, r.cm = g, comp, areaLimitMM2, fab, cm
	r.priced, r.simulated = 0, 0
	if r.shapeIndex == nil {
		r.shapeIndex = make(map[engine.ShapeKey]int)
	}
	r.layerShape, r.shapeEnd, r.cands = r.layerShape[:0], r.shapeEnd[:0], r.cands[:0]
	for li, l := range model.Layers {
		key := engine.ShapeOf(l)
		si, ok := r.shapeIndex[key]
		if !ok {
			si = len(r.shapeEnd)
			r.shapeIndex[key] = si
			for _, a := range pool[li] {
				if a.Map.StructurallyFeasible(&l, &comp) && a.Shape.PackagePositions() > 0 {
					r.cands = append(r.cands, candidate{a: a})
				}
			}
			r.shapeEnd = append(r.shapeEnd, len(r.cands))
		}
		r.layerShape = append(r.layerShape, si)
	}

	r.al1Cards = r.axisCards(r.al1Cards, g.al1, func(hw *hardware.Config, size int) { hw.AL1Bytes = size })
	r.wl1Cards = r.axisCards(r.wl1Cards, g.wl1, func(hw *hardware.Config, size int) { hw.WL1Bytes = size })
	r.al2Cards = r.axisCards(r.al2Cards, g.al2, func(hw *hardware.Config, size int) { hw.AL2Bytes, hw.OL2Bytes = size, size/2 })
	r.ol1Cards = r.axisCards(r.ol1Cards, g.ol1, func(hw *hardware.Config, size int) { hw.OL1Bytes = size })
	nc, nk := len(r.cands), len(g.ol1)
	r.al1 = resize(r.al1, len(g.al1)*nc)
	r.wl1 = resize(r.wl1, len(g.wl1)*nc)
	r.al2 = resize(r.al2, len(g.al2)*nc)
	r.ol1 = resize(r.ol1, nk*nc)
	// Each single-axis term is that axis' component of the price of the
	// fixed part plus the axis part. Every card scales die-to-die bytes by
	// the fabric's ratio, so any one takes a part to its level sums.
	levels := func(t *c3p.Traffic) energy.Levels { return r.al2Cards[0].Levels(t) }
	for c := range r.cands {
		cd := &r.cands[c]
		a := cd.a
		needs := a.Map.BufferNeeds(&a.Layer, &comp)
		fixed := a.Fixed()
		cd.ol1, cd.mac = needs.OL1, r.al2Cards[0].Price(&fixed).MAC
		for i, al1 := range g.al1 {
			part := a.AL1Part(al1)
			sum := fixed.Add(part)
			r.al1[i*nc+c] = al1Entry{al2: levels(&part).AL2, pj: r.al1Cards[i].Price(&sum).AL1, fits: needs.FitsAL1(al1)}
		}
		for j, wl1 := range g.wl1 {
			part := a.WL1Part(wl1)
			sum := fixed.Add(part)
			l := levels(&part)
			r.wl1[j*nc+c] = wl1Entry{dram: l.DRAM, d2d: l.D2D, pj: r.wl1Cards[j].Price(&sum).WL1, fits: needs.FitsWL1(wl1)}
		}
		for x, al2 := range g.al2 {
			sum := fixed.Add(a.AL2Part(al2))
			l := levels(&sum)
			r.al2[x*nc+c] = al2Entry{dram: l.DRAM, d2d: l.D2D, al2: l.AL2, ol2: r.al2Cards[x].Price(&sum).OL2,
				fits: needs.FitsAL2(al2)}
		}
		for k := range g.ol1 {
			r.ol1[k*nc+c] = r.ol1Cards[k].Price(&fixed).OL1
		}
	}
	r.win = resize(r.win, len(r.shapeEnd)*nk)
	r.byOL1 = resize(r.byOL1, nk)
	for k := range r.byOL1 {
		r.byOL1[k] = r.byOL1[k][:0]
	}
	return r
}

// resize returns s with length n, reusing its array when large enough.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// release returns r to the pool without its references to the pool's
// analyses, the fabric and the points.
func (r *repricer) release() {
	clear(r.cands)
	clear(r.shapeIndex)
	for k := range r.byOL1 {
		clear(r.byOL1[k])
	}
	r.fab, r.cm = nil, nil
	repricers.Put(r)
}

// cellHW returns the compute configuration with the buffer sizes of cell
// (i, j, a) and the grid's first O-L1 size.
func (r *repricer) cellHW(i, j, a int) hardware.Config {
	hw := r.comp
	hw.AL1Bytes, hw.WL1Bytes, hw.AL2Bytes = r.g.al1[i], r.g.wl1[j], r.g.al2[a]
	hw.OL2Bytes = hw.AL2Bytes / 2
	hw.OL1Bytes = r.g.ol1[0]
	return hw
}

// axisCards sets cards to the rate card at each of one grid axis' sizes,
// which set writes into a configuration, with the other axes at their first
// size.
func (r *repricer) axisCards(cards []energy.Card, sizes []int, set func(hw *hardware.Config, size int)) []energy.Card {
	cards = resize(cards, len(sizes))
	for x, size := range sizes {
		hw := r.cellHW(0, 0, 0)
		set(&hw, size)
		cards[x] = r.fab.Card(&hw)
	}
	return cards
}

// priceCell prices every O-L1 size at cell (i, j, a) and records each
// size's point when every layer has a candidate there. Per shape it picks,
// per O-L1 size, the first candidate in pool order with the strictly lowest
// total, priced from the grid tables: Card.Total of the candidate's
// TrafficAt record at that memory point, bit for bit. Then it evaluates the
// traffic and simulates once per distinct winner; a winner's breakdown
// differs across O-L1 sizes only in its O-L1 term.
func (r *repricer) priceCell(i, j, a int) {
	nc, nk := len(r.cands), len(r.g.ol1)
	e1s, ews, e2s := r.al1[i*nc:(i+1)*nc], r.wl1[j*nc:(j+1)*nc], r.al2[a*nc:(a+1)*nc]
	card := &r.al2Cards[a]
	cell := func(c int) energy.Cell {
		return card.Cell(e2s[c].dram+ews[c].dram, e2s[c].d2d+ews[c].d2d, e2s[c].al2+e1s[c].al2)
	}
	for w := range r.win {
		r.win[w].c = -1
	}
	priced := int64(0)
	hw := r.cellHW(i, j, a)
	lo := 0
	for si, hi := range r.shapeEnd {
		win := r.win[si*nk : (si+1)*nk]
		for c := lo; c < hi; c++ {
			e1, ew, e2 := &e1s[c], &ews[c], &e2s[c]
			if !e1.fits || !ew.fits || !e2.fits {
				continue
			}
			priced++
			p := cell(c)
			for k, ol1 := range r.g.ol1 {
				if r.cands[c].ol1 > int64(ol1) {
					continue
				}
				if t := p.Total(e1.pj, ew.pj, r.ol1[k*nc+c], e2.ol2, r.cands[c].mac); win[k].c < 0 || t < win[k].total {
					win[k].c, win[k].total = c, t
				}
			}
		}
		lo = hi
		for k := range win {
			w := &win[k]
			if w.c < 0 {
				continue
			}
			c := w.c
			w.br = cell(c).Breakdown(e1s[c].pj, ews[c].pj, r.ol1[k*nc+c], e2s[c].ol2, r.cands[c].mac)
			if p := sameWinner(win[:k], c); p >= 0 {
				w.cycles = win[p].cycles
				continue
			}
			an := r.cands[c].a
			r.simulated++
			cycles, err := r.fab.Cycles(an, an.TrafficAt(hw.AL1Bytes, hw.WL1Bytes, hw.AL2Bytes))
			if err != nil {
				panic(fmt.Sprintf("dse: simulating a re-priced winner newRepricer kept: %v", err))
			}
			w.cycles = cycles
		}
	}
	r.priced += priced
	// Sum the shape winners in model layer order, the order a per-layer
	// pricing adds them in, so the float sums match it exactly.
next:
	for k, ol1 := range r.g.ol1 {
		pt := Point{HW: hw}
		pt.HW.OL1Bytes = ol1
		for _, si := range r.layerShape {
			w := &r.win[si*nk+k]
			if w.c < 0 {
				continue next
			}
			pt.Energy.Accumulate(&w.br)
			pt.Seconds += hardware.Seconds(w.cycles)
			pt.MappedLayers++
		}
		pt.ChipletAreaMM2 = r.cm.ChipletAreaMM2(pt.HW)
		pt.MeetsArea = r.areaLimitMM2 <= 0 || pt.ChipletAreaMM2 <= r.areaLimitMM2
		r.byOL1[k] = append(r.byOL1[k], pt)
	}
}

// sameWinner returns the index in win of a winner that is candidate c, or
// -1.
func sameWinner(win []winner, c int) int {
	for p := range win {
		if win[p].c == c {
			return p
		}
	}
	return -1
}

// points returns the valid points priced so far in O-L1 → cell order.
func (r *repricer) points() []Point {
	n := 0
	for _, pts := range r.byOL1 {
		n += len(pts)
	}
	out := make([]Point, 0, n)
	for _, pts := range r.byOL1 {
		out = append(out, pts...)
	}
	return out
}
