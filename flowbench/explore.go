package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"nnbaton/internal/c3p"
	"nnbaton/internal/dse"
	"nnbaton/internal/energy"
	"nnbaton/internal/engine"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapper"
	"nnbaton/internal/obs"
	"nnbaton/internal/sim"
	"nnbaton/internal/workload"
)

// The Fig 15 pre-design explore: ResNet-50 at 224, 4096 MACs, 3 mm², the
// Table II space on the ring.
const (
	exploreMACs   = 4096
	exploreAreaMM = 3.0
	// exploreSample is how many explored points the check re-derives with a
	// full search; each costs one EvalModel on a fresh evaluator.
	exploreSample = 8
)

type exploreFlow struct {
	seed int64
	// Outputs of the last repetition, kept for check.
	cm    *hardware.CostModel
	model workload.Model
	res   *dse.ExploreResult
}

func newExploreFlow(seed int64) *exploreFlow { return &exploreFlow{seed: seed} }

func (f *exploreFlow) nominalUnit() time.Duration { return 6500 * time.Millisecond }

type exploreInstance struct {
	f     *exploreFlow
	cm    *hardware.CostModel
	model workload.Model
	eng   *engine.Evaluator
}

func (f *exploreFlow) setUp(ctx context.Context) (instance, error) {
	cm, err := hardware.NewCostModel()
	if err != nil {
		return nil, err
	}
	model, err := workload.Load("resnet50", 224)
	if err != nil {
		return nil, err
	}
	return &exploreInstance{f: f, cm: cm, model: model, eng: engine.NewFromConfig(cm, engine.Config{})}, nil
}

func (x *exploreInstance) run(ctx context.Context) (tally, error) {
	res, err := dse.Explore(ctx, x.model, dse.TableII(), exploreMACs, exploreAreaMM, x.eng)
	if err != nil {
		return tally{1, 1}, nil
	}
	x.f.cm, x.f.model, x.f.res = x.cm, x.model, &res
	return tally{1, 0}, nil
}

func (x *exploreInstance) close() error { return nil }

func (f *exploreFlow) check(ctx context.Context) error {
	if f.res == nil {
		return nil // every explore failed; the failures are counted
	}
	rng := rand.New(rand.NewSource(f.seed))
	n := min(exploreSample, len(f.res.Points))
	return checkExplore(ctx, f.cm, f.model, dse.TableII(), exploreMACs, exploreAreaMM, *f.res,
		rng.Perm(len(f.res.Points))[:n])
}

// checkExplore verifies an explore result without trusting the explore
// code: the swept count must be the compute configurations reaching macs
// times the memory grid, both counted from the space's axes here; and each
// sampled point must cost at least the full per-layer search's optimum at
// that exact hardware (explore re-prices a pool of anchor-searched mappings,
// so it can only miss the optimum, never beat it), and meet the area limit
// exactly when its area is within it.
func checkExplore(ctx context.Context, cm *hardware.CostModel, model workload.Model, space dse.Space,
	macs int, areaMM2 float64, res dse.ExploreResult, sample []int) error {
	computes := 0
	for _, np := range space.Chiplets {
		for _, nc := range space.Cores {
			for _, l := range space.Lanes {
				for _, p := range space.Vector {
					if np*nc*l*p == macs {
						computes++
					}
				}
			}
		}
	}
	grid := len(space.OL1PerLane) * len(space.AL1) * len(space.WL1) * len(space.AL2)
	if res.Swept != computes*grid {
		return fmt.Errorf("explore swept %d points, want %d compute configurations x %d memory points", res.Swept, computes, grid)
	}
	if len(res.Points) == 0 {
		return fmt.Errorf("explore found no valid point")
	}
	for _, i := range sample {
		pt := res.Points[i]
		if pt.MeetsArea != (pt.ChipletAreaMM2 <= areaMM2) || pt.ChipletAreaMM2 != cm.ChipletAreaMM2(pt.HW) {
			return fmt.Errorf("explore point %s: area %.4f mm² (cost model %.4f), meets=%v under %.1f mm²",
				pt.HW, pt.ChipletAreaMM2, cm.ChipletAreaMM2(pt.HW), pt.MeetsArea, areaMM2)
		}
		opt, err := engine.New(cm).EvalModel(ctx, model, pt.HW, mapper.Config{})
		if err != nil {
			return fmt.Errorf("full search at %s: %w", pt.HW, err)
		}
		if !opt.Complete() {
			return fmt.Errorf("full search at %s leaves layers %v unmapped, but explore mapped all %d", pt.HW, opt.Skipped, pt.MappedLayers)
		}
		if got, floor := pt.Energy.Total(), opt.Energy.Total(); got < floor*(1-1e-12) {
			return fmt.Errorf("explore point %s costs %.6g pJ, below the full search's optimum %.6g pJ (%.4fx)",
				pt.HW, got, floor, got/floor)
		}
	}
	return nil
}

// trace runs one explore under spans with the engine's registry attached,
// then probes the re-pricing calls explore makes per memory point.
func (f *exploreFlow) trace(ctx context.Context, t *tracer) (metricSet, tally, error) {
	cm, err := hardware.NewCostModel()
	if err != nil {
		return nil, tally{}, err
	}
	model, err := workload.Load("resnet50", 224)
	if err != nil {
		return nil, tally{}, err
	}
	reg := obs.NewRegistry()
	eng := engine.NewFromConfig(cm, engine.Config{Registry: reg})
	var res dse.ExploreResult
	s, err := timed(func() error {
		return t.do("unit explore-resnet50", func() error {
			return t.do("dse.explore", func() (err error) {
				res, err = dse.Explore(ctx, model, dse.TableII(), exploreMACs, exploreAreaMM, eng)
				return err
			})
		})
	})
	if err != nil {
		return nil, tally{1, 1}, nil
	}
	f.cm, f.model, f.res = cm, model, &res
	m := metricSet{}
	m.set("dse.explore_s", "s", t.medianOf("dse.explore", time.Second))
	m.set("dse.priced_points", "count", float64(reg.Snapshot().Phases["dse.memory_point"].Count))
	engineMetrics(m, eng.Stats())
	gcMetrics(m, s)
	if err := probeRepricing(ctx, t, cm, model, m); err != nil {
		return nil, tally{1, 0}, err
	}
	return m, tally{1, 0}, nil
}

// engineMetrics records the engine's memo and warm-start counters.
func engineMetrics(m metricSet, st engine.Stats) {
	m.set("engine.lookups", "count", float64(st.Lookups))
	m.set("engine.searches", "count", float64(st.Searches))
	m.set("engine.memo_hit_ratio", "ratio", float64(st.Hits+st.Coalesced)/float64(st.Lookups))
	m.set("mapper.warmstart_hits", "count", float64(st.WarmStartHits))
	gap := 0.0
	if st.WarmStartHits > 0 {
		gap = float64(st.WarmStartSeedGap) / float64(st.WarmStartHits)
	}
	m.set("mapper.warmstart_gap_bp", "bp", gap)
}

// gcMetrics records the collector's work during one repetition.
func gcMetrics(m metricSet, s sample) {
	m.set("go.gc_cycles", "count", float64(s.gcCycles))
	m.set("go.gc_pause_ms", "ms", ms(s.gcPause))
}

// probeRepricing times the five calls explore's memory-point re-pricing
// makes, each on its own: ResNet-50's KeepTop-4 search results at the
// case-study hardware, priced at every point of the Table II memory grid.
// One span covers one call kind over the candidates of one memory point, so
// the clock is read twice per few hundred calls.
func probeRepricing(ctx context.Context, t *tracer, cm *hardware.CostModel, model workload.Model, m metricSet) error {
	base := hardware.CaseStudy()
	eng := engine.New(cm)
	type cand struct {
		l   workload.Layer
		opt mapper.Option
	}
	var pool []cand
	for _, l := range model.Layers {
		opts, err := eng.SearchAll(ctx, l, base, mapper.Config{KeepTop: 4})
		if err != nil {
			return err
		}
		for _, o := range opts {
			pool = append(pool, cand{l, o})
		}
	}
	space := dse.TableII()
	// feasible and cheap hold Validate's and Feasible's verdicts per
	// candidate at one memory point.
	feasible, cheap := make([]bool, len(pool)), make([]bool, len(pool))
	var live []int
	var trs []c3p.Traffic
	var brs []energy.Breakdown
	var sink int64
	for _, ol := range space.OL1PerLane {
		for _, al1 := range space.AL1 {
			for _, wl1 := range space.WL1 {
				for _, al2 := range space.AL2 {
					if al2 < al1 {
						continue
					}
					hw := base
					hw.OL1Bytes = ol * base.Lanes
					hw.AL1Bytes, hw.WL1Bytes, hw.AL2Bytes = al1, wl1, al2
					hw.OL2Bytes = al2 / 2

					end := t.start("mapping.validate", len(pool))
					for i, c := range pool {
						feasible[i] = c.opt.Analysis.Map.Validate(c.l, hw) == nil
					}
					end()
					end = t.start("mapping.feasible", len(pool))
					for i, c := range pool {
						cheap[i] = c.opt.Analysis.Map.Feasible(c.l, hw)
					}
					end()
					live = live[:0]
					for i := range pool {
						if cheap[i] != feasible[i] {
							return fmt.Errorf("Feasible and Validate disagree on %s at %s", pool[i].l.Name, hw)
						}
						if feasible[i] {
							live = append(live, i)
						}
					}
					if len(live) == 0 {
						continue
					}
					trs, brs = trs[:0], brs[:0]
					end = t.start("c3p.traffic_at", len(live))
					for _, i := range live {
						trs = append(trs, pool[i].opt.Analysis.TrafficAt(al1, wl1, al2))
					}
					end()
					end = t.start("energy.from_traffic", len(live))
					for k := range live {
						brs = append(brs, energy.FromTraffic(trs[k], hw, cm))
					}
					end()
					end = t.start("sim.simulate_traffic", len(live))
					for k, i := range live {
						r, err := sim.SimulateTraffic(pool[i].opt.Analysis, trs[k])
						if err == nil {
							sink += r.Cycles
						}
					}
					end()
				}
			}
		}
	}
	if sink <= 0 {
		return fmt.Errorf("re-pricing probe simulated nothing")
	}
	for _, name := range []string{"mapping.validate", "mapping.feasible", "c3p.traffic_at", "energy.from_traffic", "sim.simulate_traffic"} {
		m.set(name+"_ns", "ns", t.medianOf(name, time.Nanosecond))
	}
	return nil
}
