package dse

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"nnbaton/internal/c3p"
	"nnbaton/internal/energy"
	"nnbaton/internal/engine"
	"nnbaton/internal/faults"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapper"
	"nnbaton/internal/mapping"
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
	// Harvest mapping candidates per layer at the anchor allocations. The
	// engine deduplicates repeated shapes and coalesces identical anchor
	// searches issued by concurrent compute configurations.
	pool := make([][]*c3p.Analysis, len(model.Layers))
	validAnchors := 0
	for _, anchor := range anchorConfigs(space, comp) {
		if anchor.Validate() != nil {
			continue
		}
		validAnchors++
		for li, l := range model.Layers {
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
	if len(space.OL1PerLane) == 0 {
		return nil
	}
	ol1s := make([]int, len(space.OL1PerLane))
	for k, perLane := range space.OL1PerLane {
		ol1s[k] = perLane * comp.Lanes
	}
	rp := newRepricer(model, comp, pool, ol1s, areaLimitMM2, fab, eng.CostModel())
	phase := eng.Obs().Phase("dse.memory_point")
	for _, al1 := range space.AL1 {
		for _, wl1 := range space.WL1 {
			for _, al2 := range space.AL2 {
				// §VI-B2 invalid-case pruning.
				if al2 < al1 {
					continue
				}
				cell := comp
				cell.AL1Bytes, cell.WL1Bytes, cell.AL2Bytes = al1, wl1, al2
				cell.OL2Bytes = al2 / 2
				var t0 time.Time
				if phase != nil {
					t0 = time.Now()
				}
				rp.priceCell(cell)
				if phase != nil {
					share := time.Since(t0) / time.Duration(len(ol1s))
					for range ol1s {
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

// candidate is one pooled mapping with its buffer needs hoisted.
type candidate struct {
	a     *c3p.Analysis
	needs mapping.BufferNeeds
}

// incumbent is the lowest-energy candidate of one (shape, O-L1 size) at the
// cell being priced; total is br.Total(), stored when the incumbent is set.
type incumbent struct {
	br     energy.Breakdown
	total  float64
	cycles int64
	ok     bool
}

// repricer prices one compute configuration's candidate pool across memory
// cells. Layers of equal engine.ShapeOf share one candidate list — the
// engine hands them the same search results — so each shape is priced once
// per cell and its winner reused by every layer of that shape.
type repricer struct {
	layerShape   []int         // model layer → shape index
	shapes       [][]candidate // per shape, in pool order
	ol1s         []int         // O-L1 sizes in bytes
	areaLimitMM2 float64
	fab          *mapper.Fabric
	cm           *hardware.CostModel

	win    []incumbent   // [shape*len(ol1s) + k] at the current cell
	cards  []energy.Card // per O-L1 size at the current cell
	beats  []bool
	byOL1  [][]Point // valid points per O-L1 size, in cell order
	priced int64     // candidates whose traffic was evaluated
	// simulated counts candidates that beat an incumbent and were simulated.
	simulated int64
}

// newRepricer builds the per-shape candidate lists of one compute
// configuration, in the pool's (anchor) order, without the candidates that
// are structurally infeasible on comp. Later copies of an equal mapping are
// kept: they can never displace the first copy, and dropping them saved
// ~1 % of ResNet-50 explore CPU.
func newRepricer(model workload.Model, comp hardware.Config, pool [][]*c3p.Analysis, ol1s []int,
	areaLimitMM2 float64, fab *mapper.Fabric, cm *hardware.CostModel) *repricer {
	r := &repricer{layerShape: make([]int, len(model.Layers)), ol1s: ol1s,
		areaLimitMM2: areaLimitMM2, fab: fab, cm: cm,
		cards: make([]energy.Card, len(ol1s)), beats: make([]bool, len(ol1s)),
		byOL1: make([][]Point, len(ol1s))}
	index := make(map[engine.ShapeKey]int)
	for li, l := range model.Layers {
		key := engine.ShapeOf(l)
		si, ok := index[key]
		if !ok {
			si = len(r.shapes)
			index[key] = si
			var cands []candidate
			for _, a := range pool[li] {
				if !a.Map.StructurallyFeasible(&l, &comp) {
					continue
				}
				cands = append(cands, candidate{a: a, needs: a.Map.BufferNeeds(&l, &comp)})
			}
			r.shapes = append(r.shapes, cands)
		}
		r.layerShape[li] = si
	}
	r.win = make([]incumbent, len(r.shapes)*len(ol1s))
	return r
}

// priceCell prices every O-L1 size at one cell — cell carries the A-L1,
// W-L1, A-L2 and O-L2 sizes — and records each size's point when every
// layer has a candidate there. The cell's rate card per O-L1 size is built
// once. Per shape and candidate, the traffic is evaluated once, the energy
// total once per O-L1 size, and the breakdown and the simulator only when
// the candidate beats an incumbent. The winner rule is the per-point one:
// the first candidate in pool order with the strictly lowest energy total
// whose simulation succeeds.
func (r *repricer) priceCell(cell hardware.Config) {
	nk := len(r.ol1s)
	for k, ol1 := range r.ol1s {
		hw := cell
		hw.OL1Bytes = ol1
		r.cards[k] = r.fab.Card(&hw)
	}
	clear(r.win)
	for si, cands := range r.shapes {
		win := r.win[si*nk : (si+1)*nk]
		for _, c := range cands {
			if !c.needs.FitsAt(cell.AL1Bytes, cell.WL1Bytes, cell.AL2Bytes) {
				continue
			}
			tr := c.a.TrafficAt(cell.AL1Bytes, cell.WL1Bytes, cell.AL2Bytes)
			r.priced++
			beats := false
			for k, ol1 := range r.ol1s {
				r.beats[k] = false
				if c.needs.OL1 > int64(ol1) {
					continue
				}
				if win[k].ok && r.cards[k].Total(&tr) >= win[k].total {
					continue
				}
				r.beats[k], beats = true, true
			}
			if !beats {
				continue
			}
			r.simulated++
			cycles, err := r.fab.Cycles(c.a, tr)
			if err != nil {
				continue
			}
			for k := range win {
				if r.beats[k] {
					br := r.cards[k].Price(&tr)
					win[k] = incumbent{br: br, total: br.Total(), cycles: cycles, ok: true}
				}
			}
		}
	}
	// Sum the shape winners in model layer order, the order a per-layer
	// pricing adds them in, so the float sums match it exactly.
next:
	for k, ol1 := range r.ol1s {
		pt := Point{HW: cell}
		pt.HW.OL1Bytes = ol1
		for _, si := range r.layerShape {
			w := &r.win[si*nk+k]
			if !w.ok {
				continue next
			}
			pt.Energy = pt.Energy.Add(w.br)
			pt.Seconds += hardware.Seconds(w.cycles)
			pt.MappedLayers++
		}
		pt.ChipletAreaMM2 = r.cm.ChipletAreaMM2(pt.HW)
		pt.MeetsArea = r.areaLimitMM2 <= 0 || pt.ChipletAreaMM2 <= r.areaLimitMM2
		r.byOL1[k] = append(r.byOL1[k], pt)
	}
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
