// Scenario evaluation: the yield question the paper raises but never
// quantifies. A fault scenario degrades the package (hardware.FaultMask →
// Fabric), the fabric is covered by its uniform envelopes
// (hardware.Fabric.Envelopes), each envelope is searched with the existing
// memoized machinery — the mapper.Config.Fault field keys the cache on
// (ShapeKey, HWKey, FaultMask), so healthy and degraded searches never alias
// — and the complete envelope of least energy wins the scenario. The
// zero mask degrades to a single identity envelope, which makes the healthy
// scenario result-identical to EvalModel on the base configuration.
package engine

import (
	"context"
	"fmt"

	"nnbaton/internal/faults"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapper"
	"nnbaton/internal/workload"
)

// ScenarioPoint is the evaluation of a model set on one degraded fabric.
type ScenarioPoint struct {
	// Mask is the canonical fault scenario.
	Mask hardware.FaultMask
	// Alive, TotalMACs and FailedUnits summarize the surviving fabric — the
	// x-axis material of a degradation curve.
	Alive       int
	TotalMACs   int
	FailedUnits int
	// Envelope and EnvMask identify the winning uniform sub-fabric: the
	// effective configuration the orchestrator maps onto and the ring-level
	// mask it detours under.
	Envelope hardware.Config
	EnvMask  hardware.FaultMask
	// Evals holds the compact per-model aggregates of the winning envelope,
	// in model order.
	Evals []ModelEval
	// Energy is the summed model energy in pJ (per-bit costs do not derate
	// with frequency). Cycles is the summed nominal-clock cycle count;
	// Seconds is the wall time at the scenario's binned clock.
	Energy  float64
	Cycles  int64
	Seconds float64
	// Err records why the scenario could not be evaluated.
	Err error
	// Replayed marks a point served from the checkpoint journal.
	Replayed bool
	// Attempts counts evaluation attempts (1 without retries).
	Attempts int
}

// EDP returns the scenario's energy-delay product in pJ·s at the derated
// clock.
func (p ScenarioPoint) EDP() float64 { return p.Energy * p.Seconds }

// scenarioRecord is the checkpoint-journal form of one scenario point.
type scenarioRecord struct {
	Mask        hardware.FaultMask `json:"mask"`
	Alive       int                `json:"alive"`
	TotalMACs   int                `json:"totalMACs"`
	FailedUnits int                `json:"failedUnits"`
	Envelope    hardware.Config    `json:"envelope"`
	EnvMask     hardware.FaultMask `json:"envMask"`
	Evals       []ModelEval        `json:"evals,omitempty"`
	Energy      float64            `json:"energy"`
	Cycles      int64              `json:"cycles"`
	Seconds     float64            `json:"seconds"`
	Err         string             `json:"err,omitempty"`
	Attempts    int                `json:"attempts,omitempty"`
}

// scenarioPointKey is the checkpoint key of one scenario point: model set,
// search config, base configuration and the canonical mask text. The literal
// "obj0" is kept for the same reason as in sweepPointKey.
func scenarioPointKey(sig string, cfg mapper.Config, base hardware.Config, mask hardware.FaultMask) string {
	return fmt.Sprintf("scenario|%s|obj0-keep%d-rot%v|%s|%s",
		sig, cfg.KeepTop, !cfg.DisableRotation, base.String(), mask.Key())
}

// scenarioRecordOf converts a scenario point to its journal form.
func scenarioRecordOf(pt ScenarioPoint) scenarioRecord {
	return scenarioRecord{
		Mask: pt.Mask, Alive: pt.Alive, TotalMACs: pt.TotalMACs,
		FailedUnits: pt.FailedUnits, Envelope: pt.Envelope, EnvMask: pt.EnvMask,
		Evals: pt.Evals, Energy: pt.Energy, Cycles: pt.Cycles, Seconds: pt.Seconds,
		Err: errText(pt.Err), Attempts: pt.Attempts,
	}
}

// scenarioOp names a scenario in a PanicError.
func scenarioOp(base hardware.Config, mask hardware.FaultMask) string {
	return mask.Key() + " on " + base.String()
}

// scenarioOf stamps a scenario's outcome on its point.
func scenarioOf(o Outcome[ScenarioPoint]) ScenarioPoint {
	pt := o.Val
	pt.Err, pt.Attempts, pt.Replayed = o.Err, o.Attempts, o.Replayed
	return pt
}

// EvalScenario evaluates a model set on one degraded fabric under the
// point retry-and-isolate policy: the mask is canonicalized and validated
// against the base configuration, the surviving fabric's uniform envelopes
// are each evaluated through the memoized model path, and the envelope
// ranked best by scenarioBetter (ties broken by envelope order, which is
// deterministic) becomes the scenario result. Failures land on the point's
// Err.
func (e *Evaluator) EvalScenario(ctx context.Context, models []workload.Model, base hardware.Config, mask hardware.FaultMask, cfg mapper.Config) ScenarioPoint {
	cfg = cfg.WithDefaults()
	return scenarioOf(runPoint(ctx, e, "engine.scenario", scenarioOp(base, mask), func(ctx context.Context, pt *ScenarioPoint) error {
		return e.evalScenario(ctx, models, base, mask, cfg, pt)
	}))
}

// evalScenario is one attempt at a scenario point. A failure before the
// mask is canonicalized leaves only the input mask on the point.
func (e *Evaluator) evalScenario(ctx context.Context, models []workload.Model, base hardware.Config, mask hardware.FaultMask, cfg mapper.Config, pt *ScenarioPoint) error {
	pt.Mask = mask
	if err := faults.InjectContext(ctx, "engine.scenario", mask.Key()); err != nil {
		return err
	}
	fab, err := base.Degrade(mask)
	if err != nil {
		return err
	}
	pt.Mask = fab.Mask // canonical
	freq := fab.Mask.FreqScale()

	type candidate struct {
		env      hardware.Envelope
		evals    []ModelEval
		complete bool
		energy   float64
		cycles   int64
	}
	var best *candidate
	var lastErr error
	for _, env := range fab.Envelopes() {
		ecfg := cfg
		ecfg.Fault = env.Mask
		cand := candidate{env: env, complete: true}
		for _, m := range models {
			res, err := e.EvalModel(ctx, m, env.HW, ecfg)
			if err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				lastErr = err
				cand.evals = nil
				break
			}
			cand.evals = append(cand.evals, evalOf(res))
			cand.complete = cand.complete && res.Complete()
			cand.energy += res.Energy.Total()
			cand.cycles += res.Cycles
		}
		if len(cand.evals) != len(models) {
			continue
		}
		if best == nil || scenarioBetter(cand.complete, cand.energy, best.complete, best.energy) {
			c := cand
			best = &c
		}
	}
	// Set only now, so a point that panics in the envelope loop carries just
	// its mask.
	pt.Alive = fab.AliveChiplets()
	pt.TotalMACs = fab.TotalMACs()
	pt.FailedUnits = fab.Mask.FailedUnits()
	if best == nil {
		if lastErr == nil {
			lastErr = fmt.Errorf("engine: mask %s leaves no mappable envelope of %s", fab.Mask, base.Tuple())
		}
		return lastErr
	}
	pt.Envelope = best.env.HW
	pt.EnvMask = best.env.Mask
	pt.Evals = best.evals
	pt.Energy = best.energy
	pt.Cycles = best.cycles
	pt.Seconds = hardware.Seconds(best.cycles) / freq
	return nil
}

// scenarioBetter ranks candidate envelopes: complete evaluations (every
// layer of every model mapped) beat incomplete ones, then lower energy wins.
func scenarioBetter(aComplete bool, aEnergy float64, bComplete bool, bEnergy float64) bool {
	if aComplete != bComplete {
		return aComplete
	}
	return aEnergy < bEnergy
}

// DegradationSweep evaluates a model set across an escalating fault series
// on one base configuration — the graceful-degradation curve. Points run in
// parallel under the bounded worker discipline and share the layer-search
// cache across scenarios (envelopes repeating a (shape, hardware, mask)
// triple never recompute); the result is indexed by the input series, so it
// is byte-identical across worker counts. With a checkpoint journal
// configured, completed points are journaled and replayed exactly like
// EvalSweep points (see RunPoints). Only context cancellation returns an
// error.
func (e *Evaluator) DegradationSweep(ctx context.Context, models []workload.Model, base hardware.Config, masks []hardware.FaultMask, cfg mapper.Config) ([]ScenarioPoint, error) {
	cfg = cfg.WithDefaults()
	sig := modelsSig(models)
	outs, err := RunPoints(ctx, e, Points[ScenarioPoint, scenarioRecord]{
		Label: "degradation", Span: "engine.scenario_point", Site: "engine.scenario", N: len(masks),
		Key: func(i int) string { return scenarioPointKey(sig, cfg, base, masks[i].Canonical(base)) },
		Op:  func(i int) string { return scenarioOp(base, masks[i]) },
		Eval: func(ctx context.Context, i int, pt *ScenarioPoint) error {
			return e.evalScenario(ctx, models, base, masks[i], cfg, pt)
		},
		Record: func(o Outcome[ScenarioPoint]) scenarioRecord { return scenarioRecordOf(scenarioOf(o)) },
		Replay: func(_ int, rec scenarioRecord) Outcome[ScenarioPoint] {
			return Outcome[ScenarioPoint]{Val: ScenarioPoint{
				Mask: rec.Mask, Alive: rec.Alive, TotalMACs: rec.TotalMACs,
				FailedUnits: rec.FailedUnits, Envelope: rec.Envelope, EnvMask: rec.EnvMask,
				Evals: rec.Evals, Energy: rec.Energy, Cycles: rec.Cycles, Seconds: rec.Seconds,
			}, Err: errOf(rec.Err), Attempts: rec.Attempts}
		},
	})
	if err != nil {
		return nil, err
	}
	pts := make([]ScenarioPoint, len(outs))
	for i, o := range outs {
		pts[i] = scenarioOf(o)
	}
	return pts, nil
}
