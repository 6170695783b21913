package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"nnbaton/internal/engine"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapper"
	"nnbaton/internal/noc"
	"nnbaton/internal/serve"
	"nnbaton/internal/workload"
)

// The serving ladder: oracles for four scenarios of the case-study fabric,
// then seeded Poisson traces at offered loads from half to twice saturation
// replayed against every scenario.
var serveModels = []string{"alexnet", "darknet19", "resnet50"}

// serveScenario is one fabric the ladder serves on.
type serveScenario struct {
	name string
	topo hardware.Topology
	mask string // hardware.ParseFaultMask spec; "" = healthy
}

var serveScenarios = []serveScenario{
	{"healthy", hardware.TopoRing, ""},
	{"cores1", hardware.TopoRing, "cores1@0"},
	{"chiplet1-freq90", hardware.TopoRing, "chiplet1,freq90%"},
	{"mesh", hardware.TopoMesh, ""},
}

// serveRung is one offered load: the trace's mean arrival gap is the
// saturation gap divided by rho.
type serveRung struct {
	name string
	rho  float64
}

var serveRungs = []serveRung{{"rho050", 0.5}, {"rho100", 1.0}, {"rho150", 1.5}, {"rho200", 2.0}}

const (
	// serveRequests is the length of every rung's trace.
	serveRequests = 15000
	// serveSaturationGapUS is the mean arrival gap at which the healthy
	// ring is exactly busy: the mix's mean inputs per request (2.5) times
	// the mean single-inference time of AlexNet, DarkNet-19 and ResNet-50
	// on the healthy case-study ring. Fixed here, so a trace depends on the
	// seed alone and a change to the program's service times shows as a
	// change of load, not of trace.
	serveSaturationGapUS = 2.5 * (3589.456 + 3360.050 + 4836.370) / 3
)

// servePolicy batches up to 8 inputs in a 500 µs window with no batch
// discount, so a batch's service time is exactly the sum of its inputs'.
var servePolicy = serve.Config{MaxBatch: 8, WindowUS: 500}

// poissonTrace generates n requests with exponential gaps of the given mean,
// models drawn uniformly from the mix and 1-4 inputs each.
func poissonTrace(rng *rand.Rand, n int, meanGapUS float64) serve.Trace {
	var t serve.Trace
	at := 0.0
	for i := 0; i < n; i++ {
		if i > 0 {
			at += rng.ExpFloat64() * meanGapUS
		}
		t.Requests = append(t.Requests, serve.Request{
			NetIdx: i + 1, InjectUS: at, Model: serveModels[rng.Intn(len(serveModels))],
			Inputs: 1 + rng.Intn(4), Line: i + 1,
		})
	}
	return t
}

type serveFlow struct {
	seed int64
	// Outputs of the last repetition, kept for check.
	cm      *hardware.CostModel
	models  []workload.Model
	traces  []serve.Trace
	oracles []serve.Oracle
	results [][]serve.Result // [rung][scenario]
}

func newServeFlow(seed int64) *serveFlow { return &serveFlow{seed: seed} }

func (f *serveFlow) nominalUnit() time.Duration { return 2600 * time.Millisecond }

type serveInstance struct {
	f      *serveFlow
	cm     *hardware.CostModel
	models []workload.Model
	masks  []hardware.FaultMask // per scenario
	traces []serve.Trace        // per rung
	eng    *engine.Evaluator
}

// scenarioHW returns the case-study fabric under the scenario's topology.
func scenarioHW(s serveScenario) hardware.Config {
	hw := hardware.CaseStudy()
	hw.Topology = s.topo
	return hw
}

func (f *serveFlow) setUp(ctx context.Context) (instance, error) {
	cm, err := hardware.NewCostModel()
	if err != nil {
		return nil, err
	}
	models, err := loadModels(serveModels)
	if err != nil {
		return nil, err
	}
	x := &serveInstance{f: f, cm: cm, models: models}
	for _, s := range serveScenarios {
		var mask hardware.FaultMask
		if s.mask != "" {
			if mask, err = hardware.ParseFaultMask(s.mask, scenarioHW(s)); err != nil {
				return nil, err
			}
		}
		x.masks = append(x.masks, mask)
	}
	for i, r := range serveRungs {
		rng := rand.New(rand.NewSource(f.seed*int64(len(serveRungs)) + int64(i)))
		x.traces = append(x.traces, poissonTrace(rng, serveRequests, serveSaturationGapUS/r.rho))
	}
	x.eng = engine.NewFromConfig(cm, engine.Config{})
	return x, nil
}

func (x *serveInstance) run(ctx context.Context) (tally, error) {
	var t tally
	// The ring scenarios share one fabric, so one journaled sweep builds
	// their oracles; the mesh is a second fabric.
	t.attempted += 2
	ring, err := serve.BuildOracles(ctx, x.eng, x.models, scenarioHW(serveScenarios[0]), x.masks[:3], mapper.Config{})
	if err != nil {
		return tally{t.attempted, t.attempted}, nil
	}
	mesh, err := serve.BuildOracles(ctx, x.eng, x.models, scenarioHW(serveScenarios[3]), x.masks[3:], mapper.Config{})
	if err != nil {
		return tally{t.attempted, 1}, nil
	}
	oracles := append(ring, mesh...)
	results, st := simulateLadder(x.traces, oracles, nil)
	t.add(st)
	if t.failed == 0 {
		x.f.cm, x.f.models, x.f.traces, x.f.oracles, x.f.results = x.cm, x.models, x.traces, oracles, results
	}
	return t, nil
}

// simulateLadder replays every rung's trace against every oracle, under a
// span per call when t is non-nil.
func simulateLadder(traces []serve.Trace, oracles []serve.Oracle, t *tracer) ([][]serve.Result, tally) {
	var ops tally
	results := make([][]serve.Result, len(traces))
	for i, tr := range traces {
		for j, o := range oracles {
			ops.attempted++
			var r serve.Result
			var err error
			sim := func() error { r, err = serve.Simulate(tr, o, servePolicy); return err }
			if t != nil {
				t.do(fmt.Sprintf("serve.simulate %s %s", serveRungs[i].name, serveScenarios[j].name), sim)
			} else {
				sim()
			}
			if err != nil {
				ops.failed++
			}
			results[i] = append(results[i], r)
		}
	}
	return results, ops
}

func (x *serveInstance) close() error { return nil }

func (f *serveFlow) check(ctx context.Context) error {
	if f.results == nil {
		return nil // an operation failed; the failures are counted
	}
	return checkServe(ctx, f.cm, f.models, f.traces, f.oracles, f.results)
}

// checkServe verifies the ladder against the traces and a fresh evaluator:
// each scenario's service time must equal EvalModel's seconds for its
// envelope at the scenario's clock; and on every (rung, scenario) result
// every request completes exactly once with its inputs summed, overall and
// per model, the fabric is busy exactly the sum of its inputs' service
// times, no model's latencies sit below one inference (checked at the
// lowest quantile the result exposes, the median), the latency quantiles
// are ordered and utilization is at most 1.
func checkServe(ctx context.Context, cm *hardware.CostModel, models []workload.Model, traces []serve.Trace,
	oracles []serve.Oracle, results [][]serve.Result) error {
	eng := engine.New(cm)
	for i, s := range serveScenarios {
		hw := scenarioHW(s)
		var mask hardware.FaultMask
		if s.mask != "" {
			var err error
			if mask, err = hardware.ParseFaultMask(s.mask, hw); err != nil {
				return err
			}
		}
		if err := checkOracle(ctx, eng, models, hw, mask, oracles[i]); err != nil {
			return fmt.Errorf("scenario %s: %w", s.name, err)
		}
	}
	for i, tr := range traces {
		for j, r := range results[i] {
			if err := checkServeResult(tr, oracles[j], r); err != nil {
				return fmt.Errorf("%s on %s: %w", serveRungs[i].name, serveScenarios[j].name, err)
			}
		}
	}
	return nil
}

// checkOracle recomputes one scenario's service times: EvalModel on every
// envelope of the degraded fabric whose tuple the oracle names, divided by
// the mask's clock scale, must give the oracle's seconds exactly.
func checkOracle(ctx context.Context, eng *engine.Evaluator, models []workload.Model, hw hardware.Config,
	mask hardware.FaultMask, o serve.Oracle) error {
	fab, err := hw.Degrade(mask)
	if err != nil {
		return err
	}
	var mismatch error = fmt.Errorf("no envelope of %s has the oracle's tuple %s", hw.Tuple(), o.Envelope)
	for _, env := range fab.Envelopes() {
		if env.HW.Tuple() != o.Envelope {
			continue
		}
		mismatch = nil
		for _, m := range models {
			res, err := eng.EvalModel(ctx, m, env.HW, mapper.Config{Fault: env.Mask})
			if err != nil {
				return err
			}
			name, ok := workload.CanonicalName(m.Name)
			if !ok {
				name = m.Name
			}
			if want := hardware.Seconds(res.Cycles) / fab.Mask.FreqScale(); o.SecondsPerInference[name] != want {
				mismatch = fmt.Errorf("%s: oracle %.9g s per inference, EvalModel %.9g s", name, o.SecondsPerInference[name], want)
				break
			}
		}
		if mismatch == nil {
			return nil
		}
	}
	return mismatch
}

// checkServeResult checks one simulation against its trace and oracle.
func checkServeResult(tr serve.Trace, o serve.Oracle, r serve.Result) error {
	reqs, inputs, busy := map[string]int{}, map[string]int{}, 0.0
	for _, q := range tr.Requests {
		reqs[q.Model]++
		inputs[q.Model] += q.Inputs
		busy += float64(q.Inputs) * o.SecondsPerInference[q.Model] * 1e6
	}
	if r.Requests != len(tr.Requests) || r.Inputs != tr.Inputs() {
		return fmt.Errorf("%d requests with %d inputs completed, the trace has %d with %d",
			r.Requests, r.Inputs, len(tr.Requests), tr.Inputs())
	}
	batches := 0
	for _, row := range r.PerModel {
		if row.Requests != reqs[row.Model] || row.Inputs != inputs[row.Model] {
			return fmt.Errorf("%s: %d requests with %d inputs completed, the trace has %d with %d",
				row.Model, row.Requests, row.Inputs, reqs[row.Model], inputs[row.Model])
		}
		base := o.SecondsPerInference[row.Model] * 1e6
		if row.P50US < base*(1-1e-12) || row.MeanUS < base*(1-1e-12) {
			return fmt.Errorf("%s: median latency %.3f µs (mean %.3f) below one inference, %.3f µs", row.Model, row.P50US, row.MeanUS, base)
		}
		batches += row.Batches
		delete(reqs, row.Model)
	}
	if len(reqs) != 0 || batches != r.Batches {
		return fmt.Errorf("per-model rows miss models %v or count %d batches of %d", reqs, batches, r.Batches)
	}
	if math.Abs(r.BusyUS-busy) > 1e-9*busy {
		return fmt.Errorf("fabric busy %.3f µs, the inputs' service times sum to %.3f µs", r.BusyUS, busy)
	}
	if !(r.P50US <= r.P95US && r.P95US <= r.P99US && r.P99US <= r.MaxUS) {
		return fmt.Errorf("latency quantiles out of order: p50 %.3f p95 %.3f p99 %.3f max %.3f", r.P50US, r.P95US, r.P99US, r.MaxUS)
	}
	if !(r.Utilization > 0 && r.Utilization <= 1+1e-12) {
		return fmt.Errorf("utilization %.6f outside (0, 1]", r.Utilization)
	}
	return nil
}

// trace builds each scenario's oracle with BuildOracle on a fresh evaluator
// under its own span, times the interconnect constructor, and replays the
// ladder under a span per simulation.
func (f *serveFlow) trace(ctx context.Context, t *tracer) (metricSet, tally, error) {
	inst, err := f.setUp(ctx)
	if err != nil {
		return nil, tally{}, err
	}
	x := inst.(*serveInstance)
	m := metricSet{}
	var ops tally
	var oracles []serve.Oracle
	err = t.do("unit serve-ladder", func() error {
		for i, s := range serveScenarios {
			ops.attempted++
			var o serve.Oracle
			err := t.do("serve.build_oracle "+s.name, func() (err error) {
				o, err = serve.BuildOracle(ctx, engine.New(x.cm), x.models, scenarioHW(s), x.masks[i], mapper.Config{})
				return err
			})
			if err != nil {
				ops.failed++
				return err
			}
			oracles = append(oracles, o)
		}
		results, st := simulateLadder(x.traces, oracles, t)
		ops.add(st)
		if st.failed == 0 {
			f.cm, f.models, f.traces, f.oracles, f.results = x.cm, x.models, x.traces, oracles, results
		}
		return nil
	})
	if err != nil {
		return nil, ops, err
	}
	for _, s := range serveScenarios {
		m.set("serve.oracle_s."+s.name, "s", t.medianOf("serve.build_oracle "+s.name, time.Second))
	}
	for _, r := range serveRungs {
		name := fmt.Sprintf("serve.simulate %s %s", r.name, serveScenarios[0].name)
		m.set("serve.simulate_s."+r.name, "s", t.medianOf(name, time.Second))
		m.set("serve.us_per_request."+r.name, "us", t.medianOf(name, time.Microsecond)/serveRequests)
	}
	for _, s := range []serveScenario{serveScenarios[0], serveScenarios[3]} {
		const calls = 200
		hw := scenarioHW(s)
		for rep := 0; rep < 20; rep++ {
			end := t.start("noc.new_interconnect "+s.name, calls)
			for i := 0; i < calls; i++ {
				if _, _, err := noc.NewInterconnect(hw, hardware.FaultMask{}); err != nil {
					end()
					return nil, ops, err
				}
			}
			end()
		}
	}
	m.set("noc.interconnect_us.ring", "us", t.medianOf("noc.new_interconnect healthy", time.Microsecond))
	m.set("noc.interconnect_us.mesh", "us", t.medianOf("noc.new_interconnect mesh", time.Microsecond))
	return m, ops, nil
}
