package serve

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// simulateReference is the serving loop as first written: one FIFO of every
// queued request, rescanned by gatherReference for each batch and rebuilt by
// removeReference after it. Simulate keeps one FIFO per model instead; this
// copy is the oracle TestSimulateMatchesReference holds it to.
func simulateReference(t Trace, o Oracle, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if len(t.Requests) == 0 {
		return Result{}, fmt.Errorf("serve: empty trace")
	}
	baseUS := make(map[string]float64, len(o.SecondsPerInference))
	for _, m := range t.Models() {
		sec, ok := o.SecondsPerInference[m]
		if !ok {
			return Result{}, fmt.Errorf("serve: trace model %q has no service time in scenario %s", m, o.Scenario)
		}
		if sec <= 0 {
			return Result{}, fmt.Errorf("serve: non-positive service time %v for model %q", sec, m)
		}
		baseUS[m] = sec * 1e6
	}
	alpha := cfg.alpha()
	reqs := t.Requests

	res := Result{Scenario: o.Scenario, Envelope: o.Envelope}
	latency := make([]float64, len(reqs)) // indexed like reqs
	perModel := make(map[string]*ModelRow)
	modelLat := make(map[string][]float64)
	for _, m := range t.Models() {
		perModel[m] = &ModelRow{Model: m}
	}

	queued := make([]int, 0, len(reqs)) // indices into reqs, FIFO
	next := 0                           // next arrival to enqueue
	pump := func(now float64) {
		for next < len(reqs) && reqs[next].InjectUS <= now {
			queued = append(queued, next)
			next++
		}
	}
	tFree := 0.0
	completed := 0
	var lastEnd float64
	for completed < len(reqs) {
		pump(tFree)
		if len(queued) == 0 {
			// Idle fabric: jump to the next arrival instant.
			pump(reqs[next].InjectUS)
		}
		head := reqs[queued[0]]
		deadline := math.Max(tFree, head.InjectUS+cfg.WindowUS)
		launch := math.Max(tFree, head.InjectUS)
		var members []int
		for {
			pump(launch)
			var full bool
			members, full = gatherReference(reqs, queued, head.Model, launch, cfg.MaxBatch)
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
		inputs := 0
		for _, idx := range members {
			inputs += reqs[idx].Inputs
		}
		service := baseUS[head.Model] * (1 + alpha*float64(inputs-1))
		end := launch + service
		tFree = end
		lastEnd = end
		res.BusyUS += service
		res.Batches++
		row := perModel[head.Model]
		row.Batches++
		for _, idx := range members {
			latency[idx] = end - reqs[idx].InjectUS
			row.Requests++
			row.Inputs += reqs[idx].Inputs
			modelLat[head.Model] = append(modelLat[head.Model], latency[idx])
			completed++
		}
		queued = removeReference(queued, members)
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
	for _, m := range t.Models() {
		row := perModel[m]
		lats := modelLat[m]
		sort.Float64s(lats)
		row.P50US = percentile(lats, 0.50)
		row.P95US = percentile(lats, 0.95)
		row.P99US = percentile(lats, 0.99)
		row.MeanUS = mean(lats)
		res.PerModel = append(res.PerModel, *row)
	}
	return res, nil
}

// gatherReference collects the members of the next batch: queued indices of the given
// model, in FIFO order, with arrival ≤ now, accumulating inputs until the
// cap. It never skips an earlier same-model request to admit a later one —
// the first same-model request that does not fit closes the batch (full).
// full also reports a batch at exactly the cap. A head request alone larger
// than the cap is served solo.
func gatherReference(reqs []Request, queued []int, model string, now float64, maxBatch int) (members []int, full bool) {
	total := 0
	for _, idx := range queued {
		r := reqs[idx]
		if r.Model != model || r.InjectUS > now {
			continue
		}
		if maxBatch > 0 && len(members) > 0 && total+r.Inputs > maxBatch {
			return members, true
		}
		members = append(members, idx)
		total += r.Inputs
		if maxBatch > 0 && total >= maxBatch {
			return members, true
		}
	}
	return members, false
}

// removeReference deletes the member indices from the FIFO queue, preserving order.
func removeReference(queued, members []int) []int {
	drop := make(map[int]bool, len(members))
	for _, idx := range members {
		drop[idx] = true
	}
	out := queued[:0]
	for _, idx := range queued {
		if !drop[idx] {
			out = append(out, idx)
		}
	}
	return out
}

// TestSimulateMatchesReference replays randomized traces — under- and
// overloaded, with simultaneous arrivals, multi-input requests, batch caps
// and batching windows — through Simulate and the reference loop, and
// requires identical results.
func TestSimulateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20261018))
	models := []string{"alexnet", "darknet19", "resnet50"}
	o := synthetic(map[string]float64{"alexnet": 40, "darknet19": 90, "resnet50": 210})
	for trial := 0; trial < 300; trial++ {
		// Mean gap from 8x to 1/8x the mean service time: idle fabrics
		// through deep queues.
		gap := 113 * math.Pow(2, float64(rng.Intn(7)-3))
		n := 1 + rng.Intn(400)
		tr := Trace{Requests: make([]Request, n)}
		at := 0.0
		for i := range tr.Requests {
			if rng.Intn(5) > 0 {
				at += math.Round(rng.ExpFloat64() * gap)
			}
			tr.Requests[i] = req(i, at, models[rng.Intn(len(models))], 1+rng.Intn(3)*rng.Intn(3))
		}
		cfg := Config{
			MaxBatch: []int{0, 1, 2, 3, 4, 8}[rng.Intn(6)],
			WindowUS: []float64{0, 25, 150, 1000}[rng.Intn(4)],
			Alpha:    []float64{0, 0.3, 0.7}[rng.Intn(3)],
		}
		name := fmt.Sprintf("trial %d: %d requests, gap %.0f us, %+v", trial, n, gap, cfg)
		got, err := Simulate(tr, o, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := simulateReference(tr, o, cfg)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\n got %+v\nwant %+v", name, got, want)
		}
	}
}
