package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"nnbaton/internal/c3p"
	"nnbaton/internal/dse"
	"nnbaton/internal/engine"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapper"
	"nnbaton/internal/mapping"
	"nnbaton/internal/obs"
	"nnbaton/internal/workload"
)

// The Fig 14 granularity study: 2048 MACs, 2 mm², proportional memory, over
// the four CNNs of the paper's evaluation at 224.
const (
	granularityMACs   = 2048
	granularityAreaMM = 2.0
	// granularitySample is how many (model, point, layer) winners the check
	// re-derives with the exhaustive reference search.
	granularitySample = 6
)

var granularityModels = []string{"alexnet", "vgg16", "resnet50", "darknet19"}

type granularityFlow struct {
	seed int64
	// Outputs of the last repetition, kept for check.
	cm      *hardware.CostModel
	eng     *engine.Evaluator
	models  []workload.Model
	results []dse.GranularityResult
}

func newGranularityFlow(seed int64) *granularityFlow { return &granularityFlow{seed: seed} }

func (f *granularityFlow) nominalUnit() time.Duration { return 3800 * time.Millisecond }

type granularityInstance struct {
	f      *granularityFlow
	cm     *hardware.CostModel
	models []workload.Model
	eng    *engine.Evaluator
}

func loadModels(names []string) ([]workload.Model, error) {
	out := make([]workload.Model, len(names))
	for i, n := range names {
		m, err := workload.Load(n, 224)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

func (f *granularityFlow) setUp(ctx context.Context) (instance, error) {
	cm, err := hardware.NewCostModel()
	if err != nil {
		return nil, err
	}
	models, err := loadModels(granularityModels)
	if err != nil {
		return nil, err
	}
	return &granularityInstance{f: f, cm: cm, models: models, eng: engine.NewFromConfig(cm, engine.Config{})}, nil
}

func (x *granularityInstance) run(ctx context.Context) (tally, error) {
	var t tally
	var results []dse.GranularityResult
	for _, m := range x.models {
		t.attempted++
		r, err := dse.Granularity(ctx, m, dse.TableII(), granularityMACs, granularityAreaMM,
			hardware.DefaultProportion(), x.eng)
		if err != nil {
			t.failed++
			continue
		}
		results = append(results, r)
	}
	if t.failed == 0 {
		x.f.cm, x.f.eng, x.f.models, x.f.results = x.cm, x.eng, x.models, results
	}
	return t, nil
}

func (x *granularityInstance) close() error { return nil }

// winnerRef names one per-layer winner the check re-derives.
type winnerRef struct{ model, point, layer int }

func (f *granularityFlow) check(ctx context.Context) error {
	if f.results == nil {
		return nil // a study failed; the failures are counted
	}
	rng := rand.New(rand.NewSource(f.seed))
	var sample []winnerRef
	for len(sample) < granularitySample {
		mi := rng.Intn(len(f.models))
		sample = append(sample, winnerRef{mi, rng.Intn(len(f.results[mi].Points)), rng.Intn(len(f.models[mi].Layers))})
	}
	return checkGranularity(ctx, f.cm, f.eng, f.models, dse.TableII(), granularityMACs, granularityAreaMM, f.results, sample)
}

// checkGranularity verifies a granularity study without trusting the search
// it ran: every point meets the area limit exactly when its area (from the
// cost model) is within it; each sampled point's energy is the sum of the
// per-layer winners the evaluator served it; and each sampled winner equals
// the retained exhaustive reference search (mapping, energy and cycles).
func checkGranularity(ctx context.Context, cm *hardware.CostModel, eng *engine.Evaluator, models []workload.Model,
	space dse.Space, macs int, areaMM2 float64, results []dse.GranularityResult, sample []winnerRef) error {
	want := len(space.ComputeConfigs(macs))
	for i, r := range results {
		if len(r.Points) != want {
			return fmt.Errorf("%s: %d points, want one per compute allocation (%d)", models[i].Name, len(r.Points), want)
		}
		for _, p := range r.Points {
			area := cm.ChipletAreaMM2(p.HW)
			if p.ChipletAreaMM2 != area || p.MeetsArea != (area <= areaMM2) {
				return fmt.Errorf("%s point %s: area %.4f mm² (cost model %.4f), meets=%v under %.1f mm²",
					models[i].Name, p.HW.Tuple(), p.ChipletAreaMM2, area, p.MeetsArea, areaMM2)
			}
		}
	}
	for _, s := range sample {
		model, pt := models[s.model], results[s.model].Points[s.point]
		if pt.MappedLayers != len(model.Layers) {
			continue // an unmappable point has no winners to compare
		}
		sum := 0.0
		for _, l := range model.Layers {
			w, err := eng.EvalLayer(ctx, l, pt.HW, mapper.Config{})
			if err != nil {
				return fmt.Errorf("%s %s at %s: %w", model.Name, l.Name, pt.HW.Tuple(), err)
			}
			sum += w.Energy.Total()
		}
		if math.Abs(sum-pt.Energy.Total()) > 1e-9*pt.Energy.Total() {
			return fmt.Errorf("%s at %s: point energy %.9g pJ, but its layer winners sum to %.9g pJ",
				model.Name, pt.HW.Tuple(), pt.Energy.Total(), sum)
		}
		l := model.Layers[s.layer]
		got, err := eng.EvalLayer(ctx, l, pt.HW, mapper.Config{})
		if err != nil {
			return err
		}
		ref := mapper.SearchExhaustive(l, pt.HW, cm, mapper.Config{})
		if len(ref) == 0 {
			return fmt.Errorf("%s %s at %s: the exhaustive search finds no mapping, the search found %s",
				model.Name, l.Name, pt.HW.Tuple(), got.Analysis.Map)
		}
		if err := sameWinner(got, ref[0]); err != nil {
			return fmt.Errorf("%s %s at %s: %w", model.Name, l.Name, pt.HW.Tuple(), err)
		}
	}
	return nil
}

// sameWinner compares a search winner with the exhaustive reference's.
func sameWinner(got, ref mapper.Option) error {
	if mapping.Compare(got.Analysis.Map, ref.Analysis.Map) != 0 || got.Energy != ref.Energy || got.Cycles != ref.Cycles {
		return fmt.Errorf("search winner %s (%.6g pJ, %d cycles) differs from the exhaustive %s (%.6g pJ, %d cycles)",
			got.Analysis.Map, got.Energy.Total(), got.Cycles, ref.Analysis.Map, ref.Energy.Total(), ref.Cycles)
	}
	return nil
}

// trace runs the study's sweeps under spans with the engine's registry
// attached — dse.Granularity is EvalSweep over the proportional-memory
// points plus aggregation — then probes the uncached layer search and C³P
// analysis over the four models' distinct shapes.
func (f *granularityFlow) trace(ctx context.Context, t *tracer) (metricSet, tally, error) {
	inst, err := f.setUp(ctx)
	if err != nil {
		return nil, tally{}, err
	}
	x := inst.(*granularityInstance)
	x.eng = engine.NewFromConfig(x.cm, engine.Config{Registry: obs.NewRegistry()})
	var ops tally
	var hws []hardware.Config
	for _, c := range dse.TableII().ComputeConfigs(granularityMACs) {
		hws = append(hws, c.WithProportionalMemory(hardware.DefaultProportion()))
	}
	s, err := timed(func() error {
		return t.do("unit granularity-fig14", func() error {
			for _, m := range x.models {
				ops.attempted++
				if err := t.do("engine.eval_sweep", func() error {
					_, err := x.eng.EvalSweep(ctx, []workload.Model{m}, hws, mapper.Config{})
					return err
				}); err != nil {
					ops.failed++
				}
			}
			return nil
		})
	})
	if err != nil {
		return nil, ops, err
	}
	st := x.eng.Stats()
	// The traced outputs are checked through the study the memo now answers.
	if _, err := x.run(ctx); err != nil {
		return nil, ops, err
	}
	m := metricSet{}
	m.set("engine.eval_sweep_s", "s", t.medianOf("engine.eval_sweep", time.Second))
	engineMetrics(m, st)
	gcMetrics(m, s)
	m.set("mapper.generated", "count", float64(st.Generated))
	m.set("mapper.bound_pruned", "count", float64(st.BoundPruned))
	m.set("mapper.stage_pruned", "count", float64(st.StagePruned))
	m.set("mapper.evaluated", "count", float64(st.Evaluated))
	m.set("mapper.floors", "count", float64(st.FloorsComputed))
	m.set("mapper.heap_pops", "count", float64(st.HeapPopped))
	m.set("mapper.pops_per_candidate", "ratio", float64(st.HeapPopped)/float64(st.Generated))

	// Uncached search and analysis over the distinct layer shapes.
	hw := hardware.CaseStudy()
	seen := map[engine.ShapeKey]bool{}
	for _, model := range x.models {
		for _, l := range model.Layers {
			if seen[engine.ShapeOf(l)] {
				continue
			}
			seen[engine.ShapeOf(l)] = true
			var opts []mapper.Option
			t.do("mapper.search_all", func() error {
				opts = mapper.SearchAll(l, hw, x.cm, mapper.Config{})
				return nil
			})
			if len(opts) == 0 {
				continue
			}
			const analyzeCalls = 20
			end := t.start("c3p.analyze", analyzeCalls)
			for i := 0; i < analyzeCalls; i++ {
				if _, err := c3p.Analyze(l, hw, opts[0].Analysis.Map); err != nil {
					end()
					return nil, ops, fmt.Errorf("analyze %s: %w", l.Name, err)
				}
			}
			end()
		}
	}
	m.set("mapper.search_ms", "ms", t.medianOf("mapper.search_all", time.Millisecond))
	m.set("c3p.analyze_us", "us", t.medianOf("c3p.analyze", time.Microsecond))
	return m, ops, nil
}
