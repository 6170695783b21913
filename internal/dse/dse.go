// Package dse implements NN-Baton's pre-design flow (§IV-D, §VI-B): the
// hardware design space exploration over the Table II resource options. It
// decides the chiplet granularity (Fig 14) and the full computation + memory
// allocation (Fig 15) under area and performance budgets.
//
// All evaluation routes through the unified engine (internal/engine): layer
// searches are memoized on (shape, hardware, config) and shared across every
// point of a sweep, and the whole study honors context cancellation.
package dse

import (
	"context"
	"fmt"
	"sort"

	"nnbaton/internal/energy"
	"nnbaton/internal/engine"
	"nnbaton/internal/fab"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapper"
	"nnbaton/internal/workload"
)

// Space is the exploration space of Table II. Memory options are bytes;
// O-L1 options are bytes per lane (the register file scales with the number
// of lanes holding 24-bit partial sums).
type Space struct {
	Vector   []int // P: vector-MAC size
	Lanes    []int // L: lanes per core
	Cores    []int // N_C: cores per chiplet
	Chiplets []int // N_P: chiplets per package

	OL1PerLane []int // O-L1 bytes per lane
	AL1        []int // A-L1 bytes per core
	WL1        []int // W-L1 bytes per core
	AL2        []int // A-L2 bytes per chiplet

	// Topology is the interconnect fabric every enumerated configuration
	// uses (the zero value is the paper's directional ring). A first-class
	// DSE axis: sweeping the same space under ring, mesh and torus compares
	// fabrics at matched compute/memory budgets.
	Topology hardware.Topology
}

// TableII returns the experimental space of the paper: P, L ∈ {2,4,8,16},
// N_C ∈ {1,2,4,8,16}, N_P ∈ {1,2,4,8}, O-L1 48–144 B/lane, A-L1 1–128 KB,
// W-L1 2–256 KB, A-L2 32–256 KB.
func TableII() Space {
	kb := func(xs ...int) []int {
		out := make([]int, len(xs))
		for i, x := range xs {
			out[i] = x * 1024
		}
		return out
	}
	return Space{
		Vector:     []int{2, 4, 8, 16},
		Lanes:      []int{2, 4, 8, 16},
		Cores:      []int{1, 2, 4, 8, 16},
		Chiplets:   []int{1, 2, 4, 8},
		OL1PerLane: []int{48, 96, 144},
		AL1:        kb(1, 2, 4, 8, 16, 32, 64, 128),
		WL1:        kb(2, 4, 8, 16, 32, 64, 96, 144, 256),
		AL2:        kb(32, 64, 96, 128, 192, 256),
	}
}

// MemoryPoints returns the number of memory combinations per compute tuple.
func (s Space) MemoryPoints() int {
	return len(s.OL1PerLane) * len(s.AL1) * len(s.WL1) * len(s.AL2)
}

// ComputeConfigs enumerates every (chiplet, core, lane, vector) allocation
// whose total MAC count equals totalMACs — the "63 possibilities" of §VI-B1
// for 2048 MACs — in the canonical configuration order (lessHW).
func (s Space) ComputeConfigs(totalMACs int) []hardware.Config {
	var out []hardware.Config
	for _, np := range s.Chiplets {
		for _, nc := range s.Cores {
			for _, l := range s.Lanes {
				for _, p := range s.Vector {
					if np*nc*l*p == totalMACs {
						out = append(out, hardware.Config{Chiplets: np, Cores: nc, Lanes: l,
							Vector: p, Topology: s.Topology})
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return lessHW(out[i], out[j]) })
	return out
}

// Point is one evaluated hardware implementation.
type Point struct {
	HW             hardware.Config
	Energy         energy.Breakdown
	Seconds        float64
	ChipletAreaMM2 float64
	MeetsArea      bool
	MappedLayers   int
	SkippedLayers  int
	// Err records why the point could not be evaluated (zero mapped
	// layers); empty for evaluated points.
	Err string
}

// EDP returns the point's energy-delay product (pJ·s).
func (p Point) EDP() float64 { return p.Energy.Total() * p.Seconds }

// String renders the Fig 14 tuple with headline metrics, including the
// failure reason for infeasible points.
func (p Point) String() string {
	s := fmt.Sprintf("%s: %.1f uJ, %.3f ms, %.2f mm² (meets=%v)",
		p.HW.Tuple(), p.Energy.Total()/1e6, p.Seconds*1e3, p.ChipletAreaMM2, p.MeetsArea)
	if p.Err != "" {
		s += " [error: " + p.Err + "]"
	}
	return s
}

// pointOf aggregates one engine sweep point into a design point. A failed
// evaluation is retained with zero layers and the failure reason so the
// study can report it as infeasible. Aggregation reads the compact Evals
// (not the full Results), so a point replayed from a checkpoint journal
// produces the identical design point as a live evaluation.
func pointOf(sp engine.SweepPoint, cm *hardware.CostModel, areaLimitMM2 float64) Point {
	pt := Point{HW: sp.HW, ChipletAreaMM2: cm.ChipletAreaMM2(sp.HW)}
	pt.MeetsArea = areaLimitMM2 <= 0 || pt.ChipletAreaMM2 <= areaLimitMM2
	if sp.Err != nil {
		pt.Err = sp.Err.Error()
		return pt
	}
	for _, ev := range sp.Evals {
		pt.Energy = pt.Energy.Add(ev.Energy)
		pt.Seconds += hardware.Seconds(ev.Cycles)
		pt.MappedLayers += ev.Mapped
		pt.SkippedLayers += len(ev.Skipped)
	}
	return pt
}

// GranularityResult is the Fig 14 study output for one model: every compute
// allocation of the MAC budget, with proportional memory.
type GranularityResult struct {
	Model  string
	Points []Point
}

// BestPerChipletCount returns the minimum-energy point for each chiplet
// count, optionally restricted to area-feasible implementations.
func (g GranularityResult) BestPerChipletCount(constrained bool) map[int]Point {
	best := make(map[int]Point)
	for _, p := range g.Points {
		if constrained && !p.MeetsArea {
			continue
		}
		if p.MappedLayers == 0 {
			continue
		}
		cur, ok := best[p.HW.Chiplets]
		if !ok || p.Energy.Total() < cur.Energy.Total() {
			best[p.HW.Chiplets] = p
		}
	}
	return best
}

// BestEDP returns the area-feasible point with the lowest energy-delay
// product (the red-box bar of Fig 14), or false if none is feasible.
func (g GranularityResult) BestEDP() (Point, bool) {
	var best Point
	found := false
	for _, p := range g.Points {
		if !p.MeetsArea || p.MappedLayers == 0 {
			continue
		}
		if !found || p.EDP() < best.EDP() {
			best, found = p, true
		}
	}
	return best, found
}

// Granularity runs the Fig 14 chiplet-granularity study: every compute
// allocation of totalMACs, memory assembled proportionally to computation,
// each evaluated with the optimal per-layer mapping over the given model.
func Granularity(ctx context.Context, model workload.Model, space Space, totalMACs int,
	areaLimitMM2 float64, prop hardware.Proportion, eng *engine.Evaluator) (GranularityResult, error) {
	defer eng.Obs().Span("dse.granularity")()
	configs := space.ComputeConfigs(totalMACs)
	if len(configs) == 0 {
		return GranularityResult{}, fmt.Errorf("dse: no compute allocation reaches %d MACs", totalMACs)
	}
	hws := make([]hardware.Config, len(configs))
	for i, c := range configs {
		hws[i] = c.WithProportionalMemory(prop)
	}
	sweep, err := eng.EvalSweep(ctx, []workload.Model{model}, hws, mapper.Config{})
	if err != nil {
		return GranularityResult{}, err
	}
	res := GranularityResult{Model: model.Name, Points: make([]Point, len(sweep))}
	for i, sp := range sweep {
		res.Points[i] = pointOf(sp, eng.CostModel(), areaLimitMM2)
	}
	return res, nil
}

// CostedPoint pairs a design point with its manufacturing cost.
type CostedPoint struct {
	Point
	Cost fab.SystemCost
}

// WithCosts prices every point of a granularity study under a fabrication
// process, quantifying the cost side of the chiplet trade-off ("employing
// the chiplet-based solution sacrifices the performance and energy cost but
// obtains lower cost", §VI-B1). The process is validated up front — a
// malformed process (non-positive wafer, NaN cost parameters) is an error,
// not a silently empty price list. Points whose dies cannot be fabricated
// are skipped.
func (g GranularityResult) WithCosts(p fab.Process) ([]CostedPoint, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("dse: invalid process: %w", err)
	}
	out := make([]CostedPoint, 0, len(g.Points))
	for _, pt := range g.Points {
		c, err := p.PackageCost(pt.HW.Chiplets, pt.ChipletAreaMM2)
		if err != nil {
			continue
		}
		out = append(out, CostedPoint{Point: pt, Cost: c})
	}
	return out, nil
}
