package experiments

import (
	"context"
	"fmt"
	"io"

	"nnbaton"
	"nnbaton/internal/workload"
)

// extServing turns the one-shot evaluation flow into traffic: a deterministic
// reference arrival trace of mixed AlexNet/DarkNet-19 requests is replayed
// against the case-study package healthy and under two fault scenarios (one
// dead core, one dead chiplet with a derated clock), with the memoized engine
// supplying per-inference service times. The serving report exposes what the
// single-inference tables cannot: tail latency and fabric utilization under
// queueing and batching, and how gracefully they degrade when the same trace
// hits a wounded fabric. Everything — trace, oracle, discrete-event loop —
// is deterministic, so the table is byte-identical across runs and engine
// worker counts.
func (d drivers) extServing(w io.Writer, quick bool) error {
	hw := d.caseHW()
	res, n, gapUS := 224, 120, 2500.0
	if quick {
		res, n, gapUS = 64, 30, 2500.0
	}
	var models []nnbaton.Model
	for _, name := range []string{"alexnet", "darknet19"} {
		m, err := workload.Load(name, res)
		if err != nil {
			return err
		}
		models = append(models, m)
	}
	tr := nnbaton.ReferenceServingTrace(n, gapUS, "alexnet", "darknet19")
	policy := nnbaton.ServingConfig{MaxBatch: 8, WindowUS: 500, Alpha: 0.8}
	masks := []nnbaton.FaultMask{{}}
	for _, spec := range []string{"cores1@0", "chiplet1,freq90%"} {
		mask, err := nnbaton.ParseFault(spec, hw)
		if err != nil {
			return err
		}
		masks = append(masks, mask)
	}
	results, err := d.tool.ServeTraceScenarios(context.Background(), tr, models, hw, masks, policy)
	if err != nil {
		return err
	}
	title := fmt.Sprintf("Extension: serving a %d-request trace on %s (batch<=%d, window %.0fus, alpha %.1f)",
		n, hw.Tuple(), policy.MaxBatch, policy.WindowUS, policy.Alpha)
	return nnbaton.RenderServing(w, title, results)
}
