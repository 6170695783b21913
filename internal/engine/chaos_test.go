package engine

// Chaos tests: deterministic fault injection (internal/faults) driven
// against the real evaluation paths, asserting the resilience contract —
// panics isolate, deadlines degrade, retries recover, waiters never hang,
// checkpoints resume. Run under -race by `make chaos`.

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"nnbaton/internal/ckpt"
	"nnbaton/internal/faults"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapper"
	"nnbaton/internal/par"
	"nnbaton/internal/workload"
)

// withInjector installs rules for the duration of the test.
func withInjector(t *testing.T, rules ...faults.Rule) *faults.Injector {
	t.Helper()
	in := faults.NewInjector(rules...)
	faults.Set(in)
	t.Cleanup(faults.Clear)
	return in
}

func TestChaosLeaderPanicIsolated(t *testing.T) {
	in := withInjector(t, faults.Rule{Site: "engine.search", Kind: faults.KindPanic, Times: 1})
	e := New(cm)
	hw := hardware.CaseStudy()
	_, err := e.SearchAll(bg, tinyLayer("boom"), hw, mapper.Config{})
	var pe *par.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *par.PanicError", err)
	}
	if pe.Site != "engine.search" || len(pe.Stack) == 0 {
		t.Errorf("panic not structured: site=%q stack=%d bytes", pe.Site, len(pe.Stack))
	}
	if in.Fired("engine.search") != 1 {
		t.Errorf("fired %d, want 1", in.Fired("engine.search"))
	}
	// The failed entry must be evicted: the same request succeeds now that
	// the rule is exhausted.
	opts, err := e.SearchAll(bg, tinyLayer("boom"), hw, mapper.Config{})
	if err != nil || len(opts) == 0 {
		t.Fatalf("post-panic retry: %v (%d opts)", err, len(opts))
	}
	if got := e.Stats().Panics; got != 1 {
		t.Errorf("Stats().Panics = %d, want 1", got)
	}
}

func TestChaosPanicSharedWithWaitersNoHang(t *testing.T) {
	// The leader panics while many identical requests are in flight: every
	// caller must return (the entry is closed and evicted), none may hang.
	withInjector(t, faults.Rule{Site: "engine.search", Kind: faults.KindPanic, Times: 1})
	e := NewFromConfig(cm, Config{Workers: 4})
	hw := hardware.CaseStudy()
	const callers = 16
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.SearchAll(bg, tinyLayer("shared"), hw, mapper.Config{})
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("waiters hung after leader panic")
	}
	panicked, succeeded := 0, 0
	for _, err := range errs {
		var pe *par.PanicError
		switch {
		case err == nil:
			succeeded++
		case errors.As(err, &pe):
			panicked++
		default:
			t.Errorf("unexpected error: %v", err)
		}
	}
	// Exactly one leader hits the injected panic; whoever was coalesced on
	// it shares the error, and anyone arriving after the eviction re-leads
	// and succeeds. Both groups must be non-empty in aggregate.
	if panicked == 0 || panicked+succeeded != callers {
		t.Errorf("panicked=%d succeeded=%d of %d", panicked, succeeded, callers)
	}
}

func TestChaosTransientRetryRecovers(t *testing.T) {
	withInjector(t, faults.Rule{Site: "engine.search", Kind: faults.KindError, Times: 2})
	e := NewFromConfig(cm, Config{MaxRetries: 3, Backoff: time.Millisecond})
	opts, err := e.SearchAll(bg, tinyLayer("flaky"), hardware.CaseStudy(), mapper.Config{})
	if err != nil || len(opts) == 0 {
		t.Fatalf("retry did not recover: %v (%d opts)", err, len(opts))
	}
	if got := e.Stats().Retries; got != 2 {
		t.Errorf("Stats().Retries = %d, want 2", got)
	}
}

func TestChaosRetriesExhaustTerminally(t *testing.T) {
	withInjector(t, faults.Rule{Site: "engine.search", Kind: faults.KindError})
	e := NewFromConfig(cm, Config{MaxRetries: 2, Backoff: time.Millisecond})
	_, err := e.SearchAll(bg, tinyLayer("dead"), hardware.CaseStudy(), mapper.Config{})
	if err == nil {
		t.Fatal("want terminal error after exhausted retries")
	}
	var tmp interface{ Temporary() bool }
	if !errors.As(err, &tmp) {
		t.Errorf("terminal error should be the injected transient: %v", err)
	}
	if got := e.Stats().Retries; got != 2 {
		t.Errorf("Stats().Retries = %d, want 2", got)
	}
}

func TestChaosDeadlineOverrunThenRecovery(t *testing.T) {
	// First matching search sleeps past the point deadline; the retry runs
	// clean and succeeds. The deadline is generous relative to the real tiny
	// search (which must fit inside it even under -race) and small relative
	// to the injected delay.
	withInjector(t, faults.Rule{Site: "engine.search", Kind: faults.KindDelay,
		Delay: time.Minute, Times: 1})
	// Two workers: the abandoned attempt keeps its slot until the injected
	// delay elapses, and the retry must still find a free one.
	e := NewFromConfig(cm, Config{Workers: 2, PointTimeout: 5 * time.Second, MaxRetries: 1, Backoff: time.Millisecond})
	opts, err := e.SearchAll(bg, tinyLayer("slow"), hardware.CaseStudy(), mapper.Config{})
	if err != nil || len(opts) == 0 {
		t.Fatalf("deadline retry did not recover: %v (%d opts)", err, len(opts))
	}
	st := e.Stats()
	if st.Timeouts != 1 || st.Retries != 1 {
		t.Errorf("stats = %+v, want 1 timeout and 1 retry", st)
	}
}

func TestChaosDeadlineExhaustedIsTerminal(t *testing.T) {
	withInjector(t, faults.Rule{Site: "engine.search", Kind: faults.KindDelay, Delay: 2 * time.Second})
	e := NewFromConfig(cm, Config{Workers: 2, PointTimeout: 30 * time.Millisecond, Backoff: time.Millisecond})
	_, err := e.SearchAll(bg, tinyLayer("stuck"), hardware.CaseStudy(), mapper.Config{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
}

func TestChaosSingleflightStormNoDeadlock(t *testing.T) {
	// A storm of identical requests across repeated injected panics: every
	// request terminates. Exercised under -race by `make chaos`.
	withInjector(t, faults.Rule{Site: "engine.search", Kind: faults.KindPanic, Times: 3})
	e := NewFromConfig(cm, Config{Workers: 4, MaxRetries: 0})
	hw := hardware.CaseStudy()
	const callers = 32
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.SearchAll(bg, tinyLayer("storm"), hw, mapper.Config{})
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("request storm deadlocked")
	}
	// The cache must converge once the rule exhausts. Depending on how many
	// of the storm's requests coalesced, up to all three injected panics may
	// still be pending; the rule allows at most three failures in total.
	var err error
	for attempt := 0; attempt < 4; attempt++ {
		if _, err = e.SearchAll(bg, tinyLayer("storm"), hw, mapper.Config{}); err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("cache did not converge after the rule exhausted: %v", err)
	}
}

// sweepHWs returns a small distinct set of valid configurations.
func sweepHWs(n int) []hardware.Config {
	all := []hardware.Config{
		{Chiplets: 1, Cores: 2, Lanes: 4, Vector: 8},
		{Chiplets: 2, Cores: 2, Lanes: 4, Vector: 8},
		{Chiplets: 1, Cores: 4, Lanes: 4, Vector: 8},
		{Chiplets: 2, Cores: 4, Lanes: 4, Vector: 8},
		{Chiplets: 4, Cores: 2, Lanes: 4, Vector: 8},
		{Chiplets: 4, Cores: 4, Lanes: 4, Vector: 8},
	}
	out := make([]hardware.Config, 0, n)
	for i := 0; i < n && i < len(all); i++ {
		out = append(out, all[i].WithProportionalMemory(hardware.DefaultProportion()))
	}
	return out
}

func TestChaosSweepPointPanicIsolated(t *testing.T) {
	hws := sweepHWs(3)
	withInjector(t, faults.Rule{Site: "engine.sweep_point", Kind: faults.KindPanic,
		Match: hws[1].String(), Times: 1})
	e := New(cm)
	pts, err := e.EvalSweep(bg, []workload.Model{tinyModel()}, hws, mapper.Config{})
	if err != nil {
		t.Fatalf("a panicking point must not fail the sweep: %v", err)
	}
	var pe *par.PanicError
	if !errors.As(pts[1].Err, &pe) {
		t.Fatalf("pts[1].Err = %v, want *par.PanicError", pts[1].Err)
	}
	if pts[0].Err != nil || pts[2].Err != nil {
		t.Errorf("sibling points degraded: %v, %v", pts[0].Err, pts[2].Err)
	}
	if len(pts[0].Evals) == 0 || pts[1].Evals != nil {
		t.Errorf("evals: healthy=%d panicked=%d", len(pts[0].Evals), len(pts[1].Evals))
	}
	if got := e.Stats().Panics; got != 1 {
		t.Errorf("Stats().Panics = %d, want 1", got)
	}
}

func TestChaosSweepPointPanicRetried(t *testing.T) {
	hws := sweepHWs(2)
	withInjector(t, faults.Rule{Site: "engine.sweep_point", Kind: faults.KindPanic,
		Match: hws[0].String(), Times: 1})
	e := NewFromConfig(cm, Config{MaxRetries: 1, Backoff: time.Millisecond})
	pts, err := e.EvalSweep(bg, []workload.Model{tinyModel()}, hws, mapper.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Err != nil {
		t.Fatalf("retry did not recover the point: %v", pts[0].Err)
	}
	if pts[0].Attempts != 2 {
		t.Errorf("Attempts = %d, want 2", pts[0].Attempts)
	}
}

func TestChaosScenarioPanicRetried(t *testing.T) {
	withInjector(t, faults.Rule{Site: "engine.scenario", Kind: faults.KindPanic, Times: 1})
	e := NewFromConfig(cm, Config{MaxRetries: 1, Backoff: time.Millisecond})
	pt := e.EvalScenario(bg, []workload.Model{tinyModel()}, caseBase(), hardware.FaultMask{}, mapper.Config{})
	if pt.Err != nil || pt.Attempts != 2 {
		t.Fatalf("retry did not recover the scenario: Err = %v, Attempts = %d", pt.Err, pt.Attempts)
	}
	if st := e.Stats(); st.Panics != 1 || st.Retries != 1 {
		t.Errorf("Stats() = %d panics, %d retries; want 1 and 1", st.Panics, st.Retries)
	}
}

func TestChaosSearchRetriesNotMultipliedByPoint(t *testing.T) {
	// An always-failing search inside a one-layer sweep point: the search
	// leader spends the retry budget, and the point it fails is not retried
	// on top, so the search runs MaxRetries+1 times, not (MaxRetries+1)².
	in := withInjector(t, faults.Rule{Site: "engine.search", Kind: faults.KindError})
	const maxRetries = 2
	e := NewFromConfig(cm, Config{Workers: 1, MaxRetries: maxRetries, Backoff: time.Millisecond})
	m := workload.Model{Name: "one", Resolution: 16, Layers: []workload.Layer{tinyLayer("conv1")}}
	pts, err := e.EvalSweep(bg, []workload.Model{m}, sweepHWs(1), mapper.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Err == nil {
		t.Fatal("an always-failing search must fail its point")
	}
	if got := in.Fired("engine.search"); got != maxRetries+1 {
		t.Errorf("search attempts = %d, want %d", got, maxRetries+1)
	}
	if got := e.Stats().Retries; got != maxRetries {
		t.Errorf("Stats().Retries = %d, want %d", got, maxRetries)
	}
	if pts[0].Attempts != 1 {
		t.Errorf("point Attempts = %d, want 1", pts[0].Attempts)
	}
}

func TestChaosInvalidConfigFailsPointNotSweep(t *testing.T) {
	hws := sweepHWs(2)
	hws[1].Lanes = 0 // invalid: caught by Validate at the point boundary
	e := New(cm)
	pts, err := e.EvalSweep(bg, []workload.Model{tinyModel()}, hws, mapper.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Err != nil || pts[1].Err == nil {
		t.Fatalf("validation: pts[0].Err=%v pts[1].Err=%v", pts[0].Err, pts[1].Err)
	}
}

func TestChaosMidSweepCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	withInjector(t, faults.Rule{Site: "engine.sweep_point", Kind: faults.KindCancel,
		After: 1, Times: 1, Cancel: cancel})
	e := NewFromConfig(cm, Config{Workers: 2})
	_, err := e.EvalSweep(ctx, []workload.Model{tinyModel()}, sweepHWs(6), mapper.Config{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// pointSig is the replay-stable projection of a sweep point for equality
// checks: configuration, compact aggregates, and the failure reason.
func pointSig(t *testing.T, pt SweepPoint) string {
	t.Helper()
	errStr := ""
	if pt.Err != nil {
		errStr = pt.Err.Error()
	}
	b, err := json.Marshal(struct {
		HW    hardware.Config
		Evals []ModelEval
		Err   string
	}{pt.HW, pt.Evals, errStr})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestChaosCheckpointKillResumeRoundTrip(t *testing.T) {
	// Two models, so each point carries (and each journal record replays)
	// one ModelEval per model.
	head := tinyModel()
	head.Name, head.Layers = "tiny-head", head.Layers[3:]
	models := []workload.Model{tinyModel(), head}
	hws := sweepHWs(6)

	// Reference: uninterrupted, no journal.
	ref, err := New(cm).EvalSweep(bg, models, hws, mapper.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range ref {
		if pt.Err != nil || len(pt.Evals) != len(models) {
			t.Fatalf("point %d: %d evals, err %v; want one per model", i, len(pt.Evals), pt.Err)
		}
		for k, ev := range pt.Evals {
			if ev.Model != models[k].Name || ev.Mapped != len(models[k].Layers) {
				t.Errorf("point %d eval %d: model %q, %d mapped; want %q, %d",
					i, k, ev.Model, ev.Mapped, models[k].Name, len(models[k].Layers))
			}
		}
	}

	// First run: journal to disk, injected cancellation mid-sweep ("kill").
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j1, err := ckpt.OpenWith(path, ckpt.Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	faults.Set(faults.NewInjector(faults.Rule{Site: "engine.sweep_point",
		Kind: faults.KindCancel, After: 2, Times: 1, Cancel: cancel}))
	e1 := NewFromConfig(cm, Config{Workers: 2, Journal: j1})
	if _, err := e1.EvalSweep(ctx, models, hws, mapper.Config{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("first run: err = %v, want context.Canceled", err)
	}
	faults.Clear()
	completed := j1.Appended()
	j1.Close()
	if completed == 0 || completed >= len(hws) {
		t.Fatalf("kill point: %d of %d points journaled — want a strict partial sweep", completed, len(hws))
	}

	// Resume: journaled points replay, the remainder re-evaluates, and the
	// merged result is byte-identical to the uninterrupted reference.
	j2, err := ckpt.OpenWith(path, ckpt.Options{Resume: true, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != completed {
		t.Fatalf("journal reload: %d records, want %d", j2.Len(), completed)
	}
	e2 := NewFromConfig(cm, Config{Workers: 2, Journal: j2})
	pts, err := e2.EvalSweep(bg, models, hws, mapper.Config{})
	if err != nil {
		t.Fatal(err)
	}
	replayed := 0
	for i := range pts {
		if got, want := pointSig(t, pts[i]), pointSig(t, ref[i]); got != want {
			t.Errorf("point %d differs after resume:\n got %s\nwant %s", i, got, want)
		}
		if pts[i].Replayed {
			replayed++
		}
	}
	if replayed != completed {
		t.Errorf("replayed %d points, want %d", replayed, completed)
	}
	if got := int(e2.Stats().Replayed); got != completed {
		t.Errorf("Stats().Replayed = %d, want %d", got, completed)
	}
	if j2.Appended() != len(hws)-completed {
		t.Errorf("resume run appended %d records, want %d", j2.Appended(), len(hws)-completed)
	}
}

func TestChaosParallelForPanicIsolated(t *testing.T) {
	err := par.ParallelFor(bg, 8, 4, func(i int) error {
		if i == 5 {
			panic("worker body exploded")
		}
		return nil
	})
	var pe *par.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *par.PanicError", err)
	}
	// Sequential path too.
	err = par.ParallelFor(bg, 3, 1, func(i int) error {
		if i == 1 {
			panic("sequential body exploded")
		}
		return nil
	})
	if !errors.As(err, &pe) {
		t.Fatalf("sequential err = %v, want *par.PanicError", err)
	}
}
