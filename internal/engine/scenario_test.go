package engine

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"testing"

	"nnbaton/internal/ckpt"
	"nnbaton/internal/faults"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapper"
	"nnbaton/internal/par"
	"nnbaton/internal/workload"
)

// caseBase is the Table II case-study point used across the scenario tests.
func caseBase() hardware.Config { return hardware.CaseStudy() }

// degSeries is a small escalating fault series on the case-study package.
func degSeries(t *testing.T) []hardware.FaultMask {
	t.Helper()
	base := caseBase()
	var out []hardware.FaultMask
	for _, spec := range []string{"healthy", "cores1@2", "chiplet3", "chiplet3,cores2@0", "chiplet1,chiplet3,freq90%"} {
		m, err := hardware.ParseFaultMask(spec, base)
		if err != nil {
			t.Fatalf("ParseFaultMask(%q): %v", spec, err)
		}
		out = append(out, m)
	}
	return out
}

// TestEvalScenarioZeroFaultIdentity proves the tentpole invariant zoo-wide:
// the zero-fault scenario is result-identical to the pre-fault EvalModel
// baseline — same per-model energies, cycles and mapped/skipped sets — for
// every model of the zoo on the case-study point.
func TestEvalScenarioZeroFaultIdentity(t *testing.T) {
	base := caseBase()
	e := New(cm)
	models := append(workload.Models(224), workload.MobileNetV2(224))
	for _, m := range models {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			want, err := e.EvalModel(bg, m, base, mapper.Config{})
			if err != nil {
				t.Fatal(err)
			}
			pt := e.EvalScenario(bg, []workload.Model{m}, base, hardware.FaultMask{}, mapper.Config{})
			if pt.Err != nil {
				t.Fatal(pt.Err)
			}
			if !pt.Mask.IsZero() || !pt.EnvMask.IsZero() {
				t.Errorf("zero-fault scenario must stay on the zero mask, got %v/%v", pt.Mask, pt.EnvMask)
			}
			if pt.Envelope != base {
				t.Errorf("zero-fault envelope = %v, want the base configuration", pt.Envelope)
			}
			if len(pt.Evals) != 1 {
				t.Fatalf("got %d evals, want 1", len(pt.Evals))
			}
			ev := pt.Evals[0]
			if ev.Energy != want.Energy || ev.Cycles != want.Cycles || ev.Mapped != len(want.Layers) {
				t.Errorf("zero-fault eval %+v differs from baseline (energy %+v, cycles %d, mapped %d)",
					ev, want.Energy, want.Cycles, len(want.Layers))
			}
			if pt.Energy != want.Energy.Total() || pt.Cycles != want.Cycles {
				t.Errorf("aggregate %v/%d differs from baseline %v/%d",
					pt.Energy, pt.Cycles, want.Energy.Total(), want.Cycles)
			}
			if pt.Seconds != hardware.Seconds(want.Cycles) {
				t.Errorf("Seconds = %v, want non-derated %v", pt.Seconds, hardware.Seconds(want.Cycles))
			}
			if pt.Alive != base.Chiplets || pt.TotalMACs != base.TotalMACs() || pt.FailedUnits != 0 {
				t.Errorf("fabric summary %d/%d/%d, want %d/%d/0",
					pt.Alive, pt.TotalMACs, pt.FailedUnits, base.Chiplets, base.TotalMACs())
			}
		})
	}
}

// TestEvalScenarioDegradationMonotonicity pins the physics of an escalating
// series on a real model: losing units never raises the surviving MAC count,
// and a scenario's runtime never beats the healthy baseline. Energy is
// deliberately not asserted monotone — fewer surviving chiplets also mean
// less rotating D2D traffic, so a degraded package can trade runtime for
// energy (the same trade Table II shows across chiplet counts).
func TestEvalScenarioDegradationMonotonicity(t *testing.T) {
	e := New(cm)
	models := []workload.Model{tinyModel()}
	series := degSeries(t)
	pts, err := e.DegradationSweep(bg, models, caseBase(), series, mapper.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(series) {
		t.Fatalf("got %d points, want %d", len(pts), len(series))
	}
	for i, pt := range pts {
		if pt.Err != nil {
			t.Fatalf("point %d (%s): %v", i, series[i], pt.Err)
		}
		if pt.TotalMACs > pts[0].TotalMACs {
			t.Errorf("point %d (%s): %d MACs exceeds healthy %d", i, series[i], pt.TotalMACs, pts[0].TotalMACs)
		}
		if pt.Seconds < pts[0].Seconds {
			t.Errorf("point %d (%s): runtime %.6f below healthy %.6f", i, series[i], pt.Seconds, pts[0].Seconds)
		}
	}
}

// scenarioSig renders the determinism-relevant content of a scenario point.
func scenarioSig(t *testing.T, pt ScenarioPoint) string {
	t.Helper()
	errStr := ""
	if pt.Err != nil {
		errStr = pt.Err.Error()
	}
	b, err := json.Marshal(struct {
		Rec scenarioRecord
		Err string
	}{scenarioRecordOf(pt), errStr})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDegradationSweepWorkerInvariant proves the acceptance criterion: a
// fixed degradation sweep is byte-identical across worker counts.
func TestDegradationSweepWorkerInvariant(t *testing.T) {
	models := []workload.Model{tinyModel()}
	series := degSeries(t)
	ref, err := NewFromConfig(cm, Config{Workers: 1}).DegradationSweep(bg, models, caseBase(), series, mapper.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8} {
		pts, err := NewFromConfig(cm, Config{Workers: w}).DegradationSweep(bg, models, caseBase(), series, mapper.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if got, want := scenarioSig(t, pts[i]), scenarioSig(t, ref[i]); got != want {
				t.Errorf("workers=%d point %d differs:\n got %s\nwant %s", w, i, got, want)
			}
		}
	}
}

// TestDegradationSweepKillResume proves the acceptance criterion: a sweep
// killed mid-run and resumed from its checkpoint journal is byte-identical
// to the uninterrupted sweep.
func TestDegradationSweepKillResume(t *testing.T) {
	models := []workload.Model{tinyModel()}
	series := degSeries(t)
	ref, err := New(cm).DegradationSweep(bg, models, caseBase(), series, mapper.Config{})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "degradation.jsonl")
	j1, err := ckpt.OpenWith(path, ckpt.Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	faults.Set(faults.NewInjector(faults.Rule{Site: "engine.scenario",
		Kind: faults.KindCancel, After: 2, Times: 1, Cancel: cancel}))
	e1 := NewFromConfig(cm, Config{Workers: 2, Journal: j1})
	if _, err := e1.DegradationSweep(ctx, models, caseBase(), series, mapper.Config{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("first run: err = %v, want context.Canceled", err)
	}
	faults.Clear()
	completed := j1.Appended()
	j1.Close()
	if completed == 0 || completed >= len(series) {
		t.Fatalf("kill point: %d of %d points journaled — want a strict partial sweep", completed, len(series))
	}

	j2, err := ckpt.OpenWith(path, ckpt.Options{Resume: true, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	e2 := NewFromConfig(cm, Config{Workers: 2, Journal: j2})
	pts, err := e2.DegradationSweep(bg, models, caseBase(), series, mapper.Config{})
	if err != nil {
		t.Fatal(err)
	}
	replayed := 0
	for i := range pts {
		if got, want := scenarioSig(t, pts[i]), scenarioSig(t, ref[i]); got != want {
			t.Errorf("point %d differs after resume:\n got %s\nwant %s", i, got, want)
		}
		if pts[i].Replayed {
			replayed++
		}
	}
	if replayed != completed {
		t.Errorf("replayed %d points, want %d", replayed, completed)
	}
	if got := e2.Stats().Replayed; got != int64(completed) {
		t.Errorf("Stats().Replayed = %d, want %d", got, completed)
	}
}

// TestCacheKeyFaultSeparation is the keying table test: (ShapeKey, HWKey,
// FaultMask) never collides between healthy and degraded configurations —
// distinct masks on one shape/hardware pair occupy distinct cache entries,
// the zero mask shares the pre-fault entry, and Workers/Counters still
// never fragment the key.
func TestCacheKeyFaultSeparation(t *testing.T) {
	l := tinyLayer("conv")
	hw := hardware.Config{Chiplets: 3, Cores: 4, Lanes: 4, Vector: 8}.
		WithProportionalMemory(hardware.DefaultProportion())
	masks := []hardware.FaultMask{
		{}, // healthy
		{Chiplets: 4, Dead: 1 << 3},
		{Chiplets: 4, Dead: 1 << 1},
		{Chiplets: 5, Dead: 0b11000},
	}
	keys := make(map[searchKey]string)
	for _, m := range masks {
		cfg := mapper.Config{Fault: m}.WithDefaults()
		key := searchKey{shape: ShapeOf(l), hw: HWOf(hw), cfg: cacheCfg(cfg)}
		if prev, dup := keys[key]; dup {
			t.Errorf("masks %q and %q collide on one cache key", prev, m.Key())
		}
		keys[key] = m.Key()
		// Worker count and counter sink must not fragment the key.
		alt := mapper.Config{Fault: m, Workers: 7, Counters: &mapper.Counters{}}.WithDefaults()
		if got := (searchKey{shape: ShapeOf(l), hw: HWOf(hw), cfg: cacheCfg(alt)}); got != key {
			t.Errorf("mask %q: Workers/Counters fragment the cache key", m.Key())
		}
	}

	// Live cache behavior: searching under each mask populates distinct
	// entries with distinct results (the degraded rings cost more energy).
	e := New(cm)
	var prev float64
	for i, m := range masks {
		opt, err := e.EvalLayer(bg, l, hw, mapper.Config{Fault: m})
		if err != nil {
			t.Fatalf("mask %q: %v", m.Key(), err)
		}
		if i == 0 {
			prev = opt.Energy.Total()
		} else if opt.Energy.Total() < prev {
			t.Errorf("mask %q: degraded energy %.1f below healthy %.1f", m.Key(), opt.Energy.Total(), prev)
		}
	}
	e.mu.Lock()
	entries := len(e.cache)
	e.mu.Unlock()
	if entries != len(masks) {
		t.Errorf("cache holds %d entries, want %d (one per mask)", entries, len(masks))
	}
	if s := e.Stats(); s.Hits != 0 || s.Searches != int64(len(masks)) {
		t.Errorf("stats %+v: distinct masks must each run one search", s)
	}
	// Re-evaluating any mask hits its own entry.
	if _, err := e.EvalLayer(bg, l, hw, mapper.Config{Fault: masks[1]}); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Hits != 1 {
		t.Errorf("re-evaluation under a known mask must hit the cache, stats %+v", s)
	}
}

// TestCacheFaultErrorEviction guards the PR 3 singleflight fix under the new
// key shape: a panicking search under a fault mask is evicted, so a later
// identical request re-attempts instead of being served the stale error.
func TestCacheFaultErrorEviction(t *testing.T) {
	defer faults.Clear()
	l := tinyLayer("conv")
	hw := hardware.Config{Chiplets: 3, Cores: 4, Lanes: 4, Vector: 8}.
		WithProportionalMemory(hardware.DefaultProportion())
	mask := hardware.FaultMask{Chiplets: 4, Dead: 1 << 3}
	e := New(cm)
	faults.Set(faults.NewInjector(faults.Rule{Site: "engine.search", Kind: faults.KindPanic, Times: 1}))
	_, err := e.EvalLayer(bg, l, hw, mapper.Config{Fault: mask})
	var pe *par.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a par.PanicError", err)
	}
	e.mu.Lock()
	entries := len(e.cache)
	e.mu.Unlock()
	if entries != 0 {
		t.Fatalf("failed entry must be evicted, cache holds %d", entries)
	}
	faults.Clear()
	opt, err := e.EvalLayer(bg, l, hw, mapper.Config{Fault: mask})
	if err != nil {
		t.Fatalf("retry after eviction: %v", err)
	}
	if opt.Energy.Total() <= 0 {
		t.Fatal("retry must produce a real result")
	}
}

// TestScenarioPointKeySeparation pins the journal keying: two scenarios of
// one sweep never share a key, and the mask text participates.
func TestScenarioPointKeySeparation(t *testing.T) {
	base := caseBase()
	sig := modelsSig([]workload.Model{tinyModel()})
	cfg := mapper.Config{}.WithDefaults()
	seen := make(map[string]string)
	for _, m := range degSeries(t) {
		key := scenarioPointKey(sig, cfg, base, m)
		if prev, dup := seen[key]; dup {
			t.Errorf("masks %q and %q share journal key %q", prev, m.Key(), key)
		}
		seen[key] = m.Key()
		if m.IsZero() {
			continue
		}
		if key == scenarioPointKey(sig, cfg, base, hardware.FaultMask{}) {
			t.Errorf("mask %q keys like the healthy scenario", m.Key())
		}
	}
}
