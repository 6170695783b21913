package serve

import (
	"context"
	"strings"
	"testing"

	"nnbaton/internal/engine"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapper"
	"nnbaton/internal/workload"
)

// synthetic builds an oracle with hand-picked per-inference times (µs → s),
// so the DES semantics are testable without the evaluation engine.
func synthetic(baseUS map[string]float64) Oracle {
	o := Oracle{Scenario: "healthy", Envelope: "test", SecondsPerInference: map[string]float64{}}
	for m, us := range baseUS {
		o.SecondsPerInference[m] = us / 1e6
	}
	return o
}

// req is a shorthand trace-request constructor for DES tests.
func req(idx int, at float64, model string, inputs int) Request {
	return Request{NetIdx: idx, InjectUS: at, Model: model, Inputs: inputs, Line: idx}
}

func TestSimulateBatchingWindow(t *testing.T) {
	o := synthetic(map[string]float64{"alexnet": 100})
	tr := Trace{Requests: []Request{
		req(1, 0, "alexnet", 1),
		req(2, 50, "alexnet", 1),
	}}
	// Window 100 anchored at the head's arrival: launch at t=100 with both
	// requests, service 2×100 (alpha 1), completion 300.
	res, err := Simulate(tr, o, Config{MaxBatch: 4, WindowUS: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != 1 || res.Inputs != 2 {
		t.Fatalf("batches=%d inputs=%d, want 1/2", res.Batches, res.Inputs)
	}
	if res.MaxUS != 300 || res.P50US != 250 {
		t.Errorf("latencies max=%v p50=%v, want 300/250", res.MaxUS, res.P50US)
	}
	// Window 0 launches the head alone at t=0; the second request is served
	// in its own batch after the first drains.
	res0, err := Simulate(tr, o, Config{MaxBatch: 4, WindowUS: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res0.Batches != 2 {
		t.Fatalf("window 0: batches=%d, want 2", res0.Batches)
	}
	// r1: 0→100 (latency 100); r2 arrives 50, served 100→200 (latency 150).
	if res0.P50US != 100 || res0.MaxUS != 150 {
		t.Errorf("window 0 latencies p50=%v max=%v, want 100/150", res0.P50US, res0.MaxUS)
	}
}

func TestSimulateBatchFillsEarly(t *testing.T) {
	o := synthetic(map[string]float64{"alexnet": 100})
	tr := Trace{Requests: []Request{
		req(1, 0, "alexnet", 1),
		req(2, 30, "alexnet", 1),
	}}
	// Cap 2 fills at t=30 — the batch launches before the 500µs window
	// expires. Completion 30+200=230.
	res, err := Simulate(tr, o, Config{MaxBatch: 2, WindowUS: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != 1 {
		t.Fatalf("batches=%d, want 1", res.Batches)
	}
	if res.MaxUS != 230 || res.P50US != 200 {
		t.Errorf("latencies max=%v p50=%v, want 230/200", res.MaxUS, res.P50US)
	}
}

func TestSimulateAlphaAmortization(t *testing.T) {
	o := synthetic(map[string]float64{"alexnet": 100})
	tr := Trace{Requests: []Request{
		req(1, 0, "alexnet", 1),
		req(2, 0, "alexnet", 1),
		req(3, 0, "alexnet", 1),
	}}
	// Batch of 3 at alpha 0.5: 100×(1+0.5×2) = 200 total.
	res, err := Simulate(tr, o, Config{MaxBatch: 3, WindowUS: 0, Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != 1 || res.BusyUS != 200 || res.MaxUS != 200 {
		t.Errorf("batches=%d busy=%v max=%v, want 1/200/200", res.Batches, res.BusyUS, res.MaxUS)
	}
}

func TestSimulateOversizedRequestServedSolo(t *testing.T) {
	o := synthetic(map[string]float64{"alexnet": 100})
	tr := Trace{Requests: []Request{
		req(1, 0, "alexnet", 5),
		req(2, 0, "alexnet", 1),
	}}
	res, err := Simulate(tr, o, Config{MaxBatch: 2, WindowUS: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Requests are never split: the 5-input head runs solo (500µs), then the
	// single-input request (100µs).
	if res.Batches != 2 || res.Inputs != 6 {
		t.Fatalf("batches=%d inputs=%d, want 2/6", res.Batches, res.Inputs)
	}
	if res.MaxUS != 600 {
		t.Errorf("max latency %v, want 600 (second request waits out the solo batch)", res.MaxUS)
	}
}

func TestSimulateNeverSkipsEarlierSameModelRequest(t *testing.T) {
	o := synthetic(map[string]float64{"alexnet": 100})
	tr := Trace{Requests: []Request{
		req(1, 0, "alexnet", 3),
		req(2, 0, "alexnet", 3),
		req(3, 0, "alexnet", 1),
	}}
	// Cap 4: the first batch is {r1} alone — r2 (3 inputs) does not fit and
	// FIFO order forbids skipping it to admit r3. Second batch {r2, r3}.
	res, err := Simulate(tr, o, Config{MaxBatch: 4, WindowUS: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != 2 {
		t.Fatalf("batches=%d, want 2", res.Batches)
	}
	// r1: 0→300. r2+r3: service 100×(1+3)=400, 300→700.
	if res.MaxUS != 700 || res.BusyUS != 700 {
		t.Errorf("max=%v busy=%v, want 700/700", res.MaxUS, res.BusyUS)
	}
}

func TestSimulateFIFOAcrossModels(t *testing.T) {
	o := synthetic(map[string]float64{"alexnet": 100, "resnet50": 1000})
	tr := Trace{Requests: []Request{
		req(1, 0, "resnet50", 1),
		req(2, 10, "alexnet", 1),
		req(3, 20, "resnet50", 1),
	}}
	// FIFO head-of-line: resnet r1 runs 0→1000; at 1000 the earliest queued
	// request is the alexnet one (arrived 10), so it precedes r3 even though
	// another resnet request is waiting.
	res, err := Simulate(tr, o, Config{MaxBatch: 1, WindowUS: 0})
	if err != nil {
		t.Fatal(err)
	}
	var alexLat, resnetP99 float64
	for _, m := range res.PerModel {
		switch m.Model {
		case "alexnet":
			alexLat = m.P50US
		case "resnet50":
			resnetP99 = m.P99US
		}
	}
	if alexLat != 1090 {
		t.Errorf("alexnet latency %v, want 1090 (10→1100)", alexLat)
	}
	if resnetP99 != 2080 {
		t.Errorf("resnet50 p99 %v, want 2080 (20→2100)", resnetP99)
	}
}

func TestSimulateIdleGapsAndUtilization(t *testing.T) {
	o := synthetic(map[string]float64{"alexnet": 100})
	tr := Trace{Requests: []Request{
		req(1, 0, "alexnet", 1),
		req(2, 900, "alexnet", 1),
	}}
	res, err := Simulate(tr, o, Config{WindowUS: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Span 0→1000, busy 200 → utilization 0.2.
	if res.SpanUS != 1000 || res.BusyUS != 200 {
		t.Fatalf("span=%v busy=%v, want 1000/200", res.SpanUS, res.BusyUS)
	}
	if res.Utilization != 0.2 {
		t.Errorf("utilization %v, want 0.2", res.Utilization)
	}
	if res.ThroughputRPS != 2000 {
		t.Errorf("throughput %v req/s, want 2000", res.ThroughputRPS)
	}
}

func TestSimulateErrors(t *testing.T) {
	o := synthetic(map[string]float64{"alexnet": 100})
	if _, err := Simulate(Trace{}, o, Config{}); err == nil {
		t.Error("empty trace accepted")
	}
	tr := Trace{Requests: []Request{req(1, 0, "resnet50", 1)}}
	if _, err := Simulate(tr, o, Config{}); err == nil ||
		!strings.Contains(err.Error(), "no service time") {
		t.Errorf("missing oracle model: %v", err)
	}
	tr2 := Trace{Requests: []Request{req(1, 0, "alexnet", 1)}}
	if _, err := Simulate(tr2, o, Config{WindowUS: -1}); err == nil {
		t.Error("negative window accepted")
	}
	if _, err := Simulate(tr2, o, Config{Alpha: 1.5}); err == nil {
		t.Error("alpha > 1 accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config invalid: %v", err)
	}
	if (Config{}).alpha() != 1 {
		t.Errorf("default alpha = %v, want 1", (Config{}).alpha())
	}
	if err := (Config{Alpha: 0.5, WindowUS: 10, MaxBatch: 8}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// --- engine-backed integration tests ---

func testEngine(workers int) *engine.Evaluator {
	return engine.NewFromConfig(hardware.MustCostModel(), engine.Config{Workers: workers})
}

func TestSingleRequestLatencyEqualsEvalModel(t *testing.T) {
	// Closed-form identity: a trace with one single-input request has
	// latency exactly engine.EvalModel's per-inference runtime — the DES
	// layer adds no time when there is no queueing and no batching.
	eng := testEngine(0)
	m, err := workload.Load("alexnet", 224)
	if err != nil {
		t.Fatal(err)
	}
	hw := hardware.CaseStudy()
	res, err := eng.EvalModel(context.Background(), m, hw, mapper.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := hardware.Seconds(res.Cycles) * 1e6

	o, err := BuildOracle(context.Background(), eng, []workload.Model{m}, hw, hardware.FaultMask{}, mapper.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr := Trace{Requests: []Request{req(1, 0, "alexnet", 1)}}
	sim, err := Simulate(tr, o, Config{MaxBatch: 8, WindowUS: 0})
	if err != nil {
		t.Fatal(err)
	}
	if sim.P50US != want || sim.MaxUS != want || sim.MeanUS != want {
		t.Errorf("single-request latency p50=%v max=%v mean=%v, want exactly %v", sim.P50US, sim.MaxUS, sim.MeanUS, want)
	}
	if sim.Utilization != 1 {
		t.Errorf("single-request utilization %v, want exactly 1", sim.Utilization)
	}
}

func TestBuildOracleDegradedCostsMore(t *testing.T) {
	eng := testEngine(0)
	m, err := workload.Load("alexnet", 224)
	if err != nil {
		t.Fatal(err)
	}
	hw := hardware.CaseStudy()
	healthy, err := BuildOracle(context.Background(), eng, []workload.Model{m}, hw, hardware.FaultMask{}, mapper.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mask, err := hardware.ParseFaultMask("chiplet1,freq90%", hw)
	if err != nil {
		t.Fatal(err)
	}
	degraded, err := BuildOracle(context.Background(), eng, []workload.Model{m}, hw, mask, mapper.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if degraded.SecondsPerInference["alexnet"] <= healthy.SecondsPerInference["alexnet"] {
		t.Errorf("degraded inference %.3gs not slower than healthy %.3gs",
			degraded.SecondsPerInference["alexnet"], healthy.SecondsPerInference["alexnet"])
	}
	if healthy.Scenario != "healthy" || degraded.Scenario != mask.String() {
		t.Errorf("scenario labels %q/%q", healthy.Scenario, degraded.Scenario)
	}
}

func TestBuildOraclesMatchesPerMaskOracles(t *testing.T) {
	// The journaled sweep path (BuildOracles → DegradationSweep) must return
	// exactly the oracles the direct per-mask path builds, in mask order.
	eng := testEngine(0)
	m, err := workload.Load("alexnet", 224)
	if err != nil {
		t.Fatal(err)
	}
	hw := hardware.CaseStudy()
	mask, err := hardware.ParseFaultMask("cores1@0", hw)
	if err != nil {
		t.Fatal(err)
	}
	masks := []hardware.FaultMask{{}, mask}
	batch, err := BuildOracles(context.Background(), eng, []workload.Model{m}, hw, masks, mapper.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(masks) {
		t.Fatalf("BuildOracles returned %d oracles for %d masks", len(batch), len(masks))
	}
	for i, mk := range masks {
		single, err := BuildOracle(context.Background(), eng, []workload.Model{m}, hw, mk, mapper.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].Scenario != single.Scenario || batch[i].Envelope != single.Envelope {
			t.Errorf("mask %d: oracle identity %q/%q != %q/%q", i,
				batch[i].Scenario, batch[i].Envelope, single.Scenario, single.Envelope)
		}
		for name, sec := range single.SecondsPerInference {
			if batch[i].SecondsPerInference[name] != sec {
				t.Errorf("mask %d model %s: %v != %v", i, name, batch[i].SecondsPerInference[name], sec)
			}
		}
	}
}

// renderScenarios replays the trace across the mask list on one engine and
// renders the full report — the byte-comparable artifact of the determinism
// invariant.
func renderScenarios(t *testing.T, workers int, tr Trace, masks []hardware.FaultMask) string {
	t.Helper()
	eng := testEngine(workers)
	models := make([]workload.Model, 0, len(tr.Models()))
	for _, name := range tr.Models() {
		m, err := workload.Load(name, 224)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	hw := hardware.CaseStudy()
	var results []Result
	for _, mask := range masks {
		o, err := BuildOracle(context.Background(), eng, models, hw, mask, mapper.Config{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Simulate(tr, o, Config{MaxBatch: 8, WindowUS: 200, Alpha: 0.8})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	var sb strings.Builder
	if err := Render(&sb, "determinism gate", results); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestServeReportByteIdenticalAcrossWorkers(t *testing.T) {
	// The DES determinism invariant: replaying the same trace yields
	// byte-identical percentile/throughput/utilization reports across
	// repeated runs and engine worker counts, including under a non-zero
	// fault mask.
	hw := hardware.CaseStudy()
	mask, err := hardware.ParseFaultMask("chiplet2,cores2@0", hw)
	if err != nil {
		t.Fatal(err)
	}
	tr := ReferenceTrace(40, 2000, "alexnet", "darknet19")
	masks := []hardware.FaultMask{{}, mask}
	base := renderScenarios(t, 1, tr, masks)
	if strings.TrimSpace(base) == "" {
		t.Fatal("empty report")
	}
	for _, workers := range []int{2, 8} {
		if got := renderScenarios(t, workers, tr, masks); got != base {
			t.Errorf("report differs between 1 and %d workers:\n--- w1\n%s\n--- w%d\n%s", workers, base, workers, got)
		}
	}
	if again := renderScenarios(t, 1, tr, masks); again != base {
		t.Error("report differs between repeated single-worker runs")
	}
}
