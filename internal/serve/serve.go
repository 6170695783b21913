package serve

import (
	"context"
	"fmt"
	"math"
	"sort"

	"nnbaton/internal/engine"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapper"
	"nnbaton/internal/obs"
	"nnbaton/internal/workload"
)

// Config parameterizes the serving policy of one simulation.
type Config struct {
	// MaxBatch caps the number of inputs one launched batch may carry;
	// <= 0 means unlimited. A single request larger than the cap is served
	// alone (requests are never split across batches).
	MaxBatch int
	// WindowUS is the batching window in microseconds, anchored at the
	// head-of-line request's arrival: the server waits up to this long for
	// more same-model requests before launching, unless the batch fills
	// first. 0 batches only what has already arrived.
	WindowUS float64
	// Alpha is the marginal service cost of each input beyond the first in
	// a batch, as a fraction of the single-inference latency: a batch of k
	// inputs takes base × (1 + Alpha×(k−1)). 1 (the default when <= 0)
	// means no amortization — batching then only coalesces queue entries —
	// while values below 1 model the weight-reload traffic a resident batch
	// avoids. Must be in (0, 1].
	Alpha float64
}

// alpha returns the effective marginal batch cost factor.
func (c Config) alpha() float64 {
	if c.Alpha <= 0 {
		return 1
	}
	return c.Alpha
}

// Validate rejects nonsense serving parameters.
func (c Config) Validate() error {
	if c.WindowUS < 0 {
		return fmt.Errorf("serve: batching window %v must be non-negative", c.WindowUS)
	}
	if c.Alpha < 0 || c.Alpha > 1 {
		return fmt.Errorf("serve: batch alpha %v must be in (0,1] (0 selects the default 1)", c.Alpha)
	}
	return nil
}

// Oracle holds the per-model single-inference service times of one scenario
// — the analytical cost model the discrete-event loop consults per batch.
type Oracle struct {
	// Scenario is the canonical fault-mask text ("healthy" for zero).
	Scenario string
	// Envelope is the tuple text of the fabric the models were mapped onto
	// (the winning uniform sub-fabric under a fault mask).
	Envelope string
	// SecondsPerInference maps canonical model names to the seconds one
	// inference takes on the scenario's fabric at its (possibly derated)
	// clock.
	SecondsPerInference map[string]float64
}

// BuildOracle evaluates every model once on the (possibly degraded) fabric
// and returns the per-model service times: the memoized engine is the
// analytical inner loop, so the trace length never multiplies search cost.
// The zero mask is the healthy identity — its per-model seconds equal
// engine.EvalModel's exactly. Models with unmappable (skipped) layers are
// rejected: a serving latency computed from a partial network would be a
// silent lie.
func BuildOracle(ctx context.Context, eng *engine.Evaluator, models []workload.Model, hw hardware.Config, mask hardware.FaultMask, cfg mapper.Config) (Oracle, error) {
	return oracleOf(eng.EvalScenario(ctx, models, hw, mask, cfg), hw)
}

// BuildOracles evaluates one oracle per fault scenario through the engine's
// journaled sweep path: scenarios run in parallel sharing the layer-search
// cache, the result is indexed by the mask list (byte-identical across
// worker counts), and with a checkpoint journal configured on the engine,
// completed scenarios are appended and replayed on resume.
func BuildOracles(ctx context.Context, eng *engine.Evaluator, models []workload.Model, hw hardware.Config, masks []hardware.FaultMask, cfg mapper.Config) ([]Oracle, error) {
	pts, err := eng.DegradationSweep(ctx, models, hw, masks, cfg)
	if err != nil {
		return nil, err
	}
	out := make([]Oracle, len(pts))
	for i, pt := range pts {
		if out[i], err = oracleOf(pt, hw); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// oracleOf converts a completed scenario point to its serving oracle.
func oracleOf(pt engine.ScenarioPoint, hw hardware.Config) (Oracle, error) {
	if pt.Err != nil {
		return Oracle{}, fmt.Errorf("serve: scenario %s on %s: %w", pt.Mask, hw.Tuple(), pt.Err)
	}
	o := Oracle{
		Scenario:            pt.Mask.String(),
		Envelope:            pt.Envelope.Tuple(),
		SecondsPerInference: make(map[string]float64, len(pt.Evals)),
	}
	freq := pt.Mask.FreqScale()
	for _, ev := range pt.Evals {
		if len(ev.Skipped) > 0 {
			return Oracle{}, fmt.Errorf("serve: scenario %s: model %s has %d unmappable layers (%v); serving latency would be incomplete",
				pt.Mask, ev.Model, len(ev.Skipped), ev.Skipped)
		}
		name, ok := workload.CanonicalName(ev.Model)
		if !ok {
			name = ev.Model
		}
		o.SecondsPerInference[name] = hardware.Seconds(ev.Cycles) / freq
	}
	return o, nil
}

// ModelRow is the per-model slice of a serving result.
type ModelRow struct {
	Model    string
	Requests int
	Inputs   int
	Batches  int
	P50US    float64
	P95US    float64
	P99US    float64
	MeanUS   float64
}

// Result is the outcome of replaying one trace against one scenario.
type Result struct {
	// Scenario and Envelope identify the fabric (oracle) served on.
	Scenario string
	Envelope string
	// Requests, Inputs and Batches count the completed work.
	Requests int
	Inputs   int
	Batches  int
	// SpanUS is the busy horizon: last batch completion minus first
	// injection. BusyUS is the time the fabric spent computing batches;
	// Utilization is their ratio.
	SpanUS      float64
	BusyUS      float64
	Utilization float64
	// Request-latency distribution (injection to batch completion), in
	// microseconds.
	P50US  float64
	P95US  float64
	P99US  float64
	MeanUS float64
	MaxUS  float64
	// ThroughputRPS and ThroughputIPS are completed requests and inputs
	// per second of span.
	ThroughputRPS float64
	ThroughputIPS float64
	// PerModel holds the per-model rows in trace first-appearance order.
	PerModel []ModelRow
}

// String summarizes the result on one line.
func (r Result) String() string {
	return fmt.Sprintf("%s: %d requests (%d inputs) in %d batches, p50 %.3f ms, p99 %.3f ms, %.1f req/s, util %.1f%%",
		r.Scenario, r.Requests, r.Inputs, r.Batches, r.P50US/1e3, r.P99US/1e3, r.ThroughputRPS, r.Utilization*100)
}

// Simulate replays the trace against the oracle under the serving policy.
// The discrete-event loop is strictly sequential and consumes no random
// state, so the result — and any report rendered from it — is byte-identical
// across runs and engine worker counts (the oracle's service times are
// themselves worker-invariant by the engine's determinism).
//
// Event semantics: requests queue FIFO in arrival order (the trace is
// time-ordered; simultaneous arrivals keep file order). When the fabric is
// free it serves the head-of-line request's model, coalescing queued and
// window-arriving same-model requests in FIFO order — never skipping an
// earlier same-model request to batch a later one — until the batch fills
// (MaxBatch inputs) or the window (head arrival + WindowUS) expires. A batch
// of k inputs occupies the fabric for base × (1 + Alpha×(k−1)) where base is
// the oracle's single-inference time; every member request completes when
// its batch does.
func Simulate(t Trace, o Oracle, cfg Config) (Result, error) {
	defer obs.Time("serve.simulate")()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if len(t.Requests) == 0 {
		return Result{}, fmt.Errorf("serve: empty trace")
	}
	// Per-model state is indexed like t.Models().
	models := t.Models()
	modelIdx := make(map[string]int, len(models))
	baseUS := make([]float64, len(models))
	rows := make([]ModelRow, len(models))
	for i, m := range models {
		sec, ok := o.SecondsPerInference[m]
		if !ok {
			return Result{}, fmt.Errorf("serve: trace model %q has no service time in scenario %s", m, o.Scenario)
		}
		if sec <= 0 {
			return Result{}, fmt.Errorf("serve: non-positive service time %v for model %q", sec, m)
		}
		modelIdx[m], baseUS[i], rows[i].Model = i, sec*1e6, m
	}
	alpha := cfg.alpha()
	reqs := t.Requests

	res := Result{Scenario: o.Scenario, Envelope: o.Envelope}
	latency := make([]float64, len(reqs)) // indexed like reqs
	modelLat := make([][]float64, len(models))

	// Queues are pumped up to the launch instant before a batch forms, so
	// every queued request has already arrived and a batch is always a
	// prefix of its model's FIFO. One FIFO per model (indices into reqs):
	// the head-of-line request is the earliest of their fronts.
	queues := make([][]int, len(models))
	queued := 0
	next := 0 // next arrival to enqueue
	pump := func(now float64) {
		for next < len(reqs) && reqs[next].InjectUS <= now {
			q := modelIdx[reqs[next].Model]
			queues[q] = append(queues[q], next)
			queued++
			next++
		}
	}
	tFree := 0.0
	completed := 0
	var lastEnd float64
	for completed < len(reqs) {
		pump(tFree)
		if queued == 0 {
			// Idle fabric: jump to the next arrival instant.
			pump(reqs[next].InjectUS)
		}
		hq := -1
		for q, fifo := range queues {
			if len(fifo) > 0 && (hq < 0 || fifo[0] < queues[hq][0]) {
				hq = q
			}
		}
		head := reqs[queues[hq][0]]
		deadline := math.Max(tFree, head.InjectUS+cfg.WindowUS)
		launch := math.Max(tFree, head.InjectUS)
		var n int
		for {
			pump(launch)
			var full bool
			n, full = batchPrefix(reqs, queues[hq], cfg.MaxBatch)
			if full || launch >= deadline {
				break
			}
			// Advance to the earlier of window expiry and the next
			// same-model arrival that could still join.
			step := deadline
			for j := next; j < len(reqs); j++ {
				if reqs[j].InjectUS <= launch {
					continue
				}
				if reqs[j].Model == head.Model {
					step = math.Min(step, reqs[j].InjectUS)
					break
				}
				if reqs[j].InjectUS >= step {
					break
				}
			}
			if step <= launch {
				break
			}
			launch = step
		}
		members := queues[hq][:n]
		queues[hq] = queues[hq][n:]
		queued -= n
		inputs := 0
		for _, idx := range members {
			inputs += reqs[idx].Inputs
		}
		service := baseUS[hq] * (1 + alpha*float64(inputs-1))
		end := launch + service
		tFree = end
		lastEnd = end
		res.BusyUS += service
		res.Batches++
		row := &rows[hq]
		row.Batches++
		for _, idx := range members {
			latency[idx] = end - reqs[idx].InjectUS
			row.Requests++
			row.Inputs += reqs[idx].Inputs
			modelLat[hq] = append(modelLat[hq], latency[idx])
			completed++
		}
		res.Inputs += inputs
	}

	res.Requests = len(reqs)
	res.SpanUS = lastEnd - reqs[0].InjectUS
	if res.SpanUS > 0 {
		res.Utilization = res.BusyUS / res.SpanUS
		res.ThroughputRPS = float64(res.Requests) / (res.SpanUS / 1e6)
		res.ThroughputIPS = float64(res.Inputs) / (res.SpanUS / 1e6)
	}
	all := append([]float64(nil), latency...)
	sort.Float64s(all)
	res.P50US = percentile(all, 0.50)
	res.P95US = percentile(all, 0.95)
	res.P99US = percentile(all, 0.99)
	res.MaxUS = all[len(all)-1]
	res.MeanUS = mean(all)
	for i, lats := range modelLat {
		sort.Float64s(lats)
		rows[i].P50US = percentile(lats, 0.50)
		rows[i].P95US = percentile(lats, 0.95)
		rows[i].P99US = percentile(lats, 0.99)
		rows[i].MeanUS = mean(lats)
	}
	res.PerModel = rows
	return res, nil
}

// batchPrefix returns how many requests from the front of one model's FIFO
// the next batch takes, accumulating inputs until the cap. It never skips an
// earlier same-model request to admit a later one — the first request that
// does not fit closes the batch (full). full also reports a batch at exactly
// the cap. A head request alone larger than the cap is served solo.
func batchPrefix(reqs []Request, fifo []int, maxBatch int) (n int, full bool) {
	total := 0
	for ; n < len(fifo); n++ {
		in := reqs[fifo[n]].Inputs
		if maxBatch > 0 && n > 0 && total+in > maxBatch {
			return n, true
		}
		total += in
		if maxBatch > 0 && total >= maxBatch {
			return n + 1, true
		}
	}
	return n, false
}

// percentile returns the nearest-rank percentile of an ascending-sorted
// slice (0 on empty input).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// mean returns the arithmetic mean (0 on empty input).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
