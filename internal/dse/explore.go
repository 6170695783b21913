package dse

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"

	"nnbaton/internal/c3p"
	"nnbaton/internal/energy"
	"nnbaton/internal/engine"
	"nnbaton/internal/faults"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapper"
	"nnbaton/internal/obs"
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
	return exploreComputes(ctx, model, space, totalMACs, areaLimitMM2, eng, computes, "explore "+model.Name)
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
	return exploreComputes(ctx, model, space, totalMACs, areaLimitMM2, eng, computes[lo:hi], label)
}

// exploreComputes is the shared body of Explore and ExploreRange: evaluate
// (or replay) each given compute configuration, restore canonical order, and
// pick the best point of the covered range.
func exploreComputes(ctx context.Context, model workload.Model, space Space, totalMACs int,
	areaLimitMM2 float64, eng *engine.Evaluator, computes []hardware.Config, label string) (ExploreResult, error) {
	res := ExploreResult{Model: model.Name}
	jrn := eng.Config().Journal
	var mu sync.Mutex

	// Progress is tracked per compute configuration (the unit of anchor
	// harvesting); the memory cross-product within each is pure re-pricing.
	track := obs.NewTracker(eng.ProgressSink(), label, len(computes))
	// Serpentine neighbor order keeps consecutive compute configurations
	// adjacent, so the engine's warm-start hints stay hot point-to-point;
	// the canonical re-sort below makes output order-independent, and shard
	// boundaries stay hint-adjacent through the persistent cache.
	order := engine.NeighborOrder(computes)
	err := engine.ParallelFor(ctx, len(computes), eng.Workers(), func(oi int) error {
		comp := computes[order[oi]]
		key := exploreKey(model, space, totalMACs, areaLimitMM2, comp)
		if raw, ok := jrn.Lookup(key); ok {
			var rec exploreRecord
			if err := json.Unmarshal(raw, &rec); err == nil {
				mu.Lock()
				res.Swept += rec.Swept
				res.Points = append(res.Points, rec.Points...)
				if rec.Err != "" {
					res.Failed = append(res.Failed, PointFailure{HW: comp, Err: rec.Err})
				}
				res.Replayed++
				mu.Unlock()
				var ptErr error
				if rec.Err != "" {
					ptErr = errors.New(rec.Err)
				}
				track.Replayed(ptErr)
				return nil
			}
		}
		stop := eng.Obs().Span("dse.explore_compute")
		points, swept, err := exploreComputeSafe(ctx, model, space, comp, areaLimitMM2, eng)
		stop()
		if err != nil && ctx.Err() != nil {
			// Cancelled mid-configuration: abort, and never journal — a
			// resumed run must re-evaluate it.
			return ctx.Err()
		}
		rec := exploreRecord{Points: points, Swept: swept}
		if err != nil {
			rec.Err = err.Error()
		} else if len(points) == 0 {
			rec.Err = fmt.Sprintf("dse: no valid memory point for %s", comp.Tuple())
		}
		mu.Lock()
		res.Swept += swept
		res.Points = append(res.Points, points...)
		if rec.Err != "" {
			res.Failed = append(res.Failed, PointFailure{HW: comp, Err: rec.Err})
		}
		mu.Unlock()
		if jerr := jrn.Append(key, rec); jerr != nil {
			return jerr
		}
		var ptErr error
		if rec.Err != "" {
			ptErr = errors.New(rec.Err)
		}
		track.Done(ptErr)
		return nil
	})
	if err != nil {
		return ExploreResult{}, err
	}

	// Parallel completion interleaves the per-compute appends; restore the
	// canonical order so output (and a resumed run) is deterministic.
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

// exploreComputeSafe is exploreCompute under panic isolation: a panic inside
// the harvest or re-pricing of one compute configuration becomes that
// configuration's failure, not the study's crash.
func exploreComputeSafe(ctx context.Context, model workload.Model, space Space, comp hardware.Config,
	areaLimitMM2 float64, eng *engine.Evaluator) (points []Point, swept int, err error) {
	defer func() {
		if r := recover(); r != nil {
			points, swept = nil, 0
			err = &engine.PanicError{Site: "dse.explore_compute", Op: comp.Tuple(), Value: r, Stack: debug.Stack()}
		}
	}()
	return exploreCompute(ctx, model, space, comp, areaLimitMM2, eng)
}

func exploreCompute(ctx context.Context, model workload.Model, space Space, comp hardware.Config,
	areaLimitMM2 float64, eng *engine.Evaluator) ([]Point, int, error) {
	if err := faults.InjectContext(ctx, "dse.explore_compute", comp.Tuple()); err != nil {
		return nil, 0, err
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
				return nil, 0, err
			}
			for _, opt := range opts {
				pool[li] = append(pool[li], opt.Analysis)
			}
		}
	}
	if validAnchors == 0 {
		return nil, 0, fmt.Errorf("dse: no valid anchor configuration for %s", comp.Tuple())
	}
	// Every memory point shares the compute configuration's interconnect, so
	// one pricing kernel serves the whole memory cross-product.
	fab, err := mapper.NewFabric(comp, hardware.FaultMask{}, eng.CostModel())
	if err != nil {
		return nil, 0, err
	}

	var points []Point
	swept := 0
	for _, olPerLane := range space.OL1PerLane {
		for _, al1 := range space.AL1 {
			for _, wl1 := range space.WL1 {
				for _, al2 := range space.AL2 {
					swept++
					// §VI-B2 invalid-case pruning.
					if al2 < al1 {
						continue
					}
					hw := comp
					hw.OL1Bytes = olPerLane * comp.Lanes
					hw.AL1Bytes, hw.WL1Bytes, hw.AL2Bytes = al1, wl1, al2
					hw.OL2Bytes = al2 / 2
					stop := eng.Obs().Span("dse.memory_point")
					pt, ok := priceMemoryPoint(model, hw, pool, areaLimitMM2, fab, eng.CostModel())
					stop()
					if ok {
						points = append(points, pt)
					}
				}
			}
		}
	}
	return points, swept, nil
}

// priceMemoryPoint re-prices the pooled candidates at one memory allocation
// through the compute configuration's pricing kernel and returns the
// aggregated point; ok is false when some layer has no valid candidate at
// these buffer sizes.
func priceMemoryPoint(model workload.Model, hw hardware.Config, pool [][]*c3p.Analysis,
	areaLimitMM2 float64, fab *mapper.Fabric, cm *hardware.CostModel) (Point, bool) {
	pt := Point{HW: hw, ChipletAreaMM2: cm.ChipletAreaMM2(hw)}
	pt.MeetsArea = areaLimitMM2 <= 0 || pt.ChipletAreaMM2 <= areaLimitMM2
	for li, l := range model.Layers {
		bestE := -1.0
		var bestBr energy.Breakdown
		var bestCycles int64
		for _, a := range pool[li] {
			if !a.Map.Feasible(l, hw) {
				continue
			}
			tr := a.TrafficAt(hw.AL1Bytes, hw.WL1Bytes, hw.AL2Bytes)
			br := fab.Energy(tr, hw)
			if bestE >= 0 && br.Total() >= bestE {
				continue
			}
			cycles, err := fab.Cycles(a, tr)
			if err != nil {
				continue
			}
			bestE, bestBr, bestCycles = br.Total(), br, cycles
		}
		if bestE < 0 {
			pt.SkippedLayers++
			continue
		}
		pt.Energy = pt.Energy.Add(bestBr)
		pt.Seconds += hardware.Seconds(bestCycles)
		pt.MappedLayers++
	}
	return pt, pt.MappedLayers == len(model.Layers)
}
