package dse

// Chaos and resilience tests of the exploration layer: Pareto-front
// equivalence against the quadratic reference, isolated compute-point
// panics, and checkpointed kill/resume round trips. Run under -race by
// `make chaos`.

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"nnbaton/internal/ckpt"
	"nnbaton/internal/engine"
	"nnbaton/internal/faults"
	"nnbaton/internal/obs"
)

// paretoQuadratic is the O(n²) pairwise-dominance reference the optimized
// scan must reproduce exactly (including its output order).
func paretoQuadratic(points []Point) []Point {
	front := make([]Point, 0)
	for _, p := range points {
		dominated := false
		for _, q := range points {
			if q.ChipletAreaMM2 <= p.ChipletAreaMM2 && q.EDP() <= p.EDP() &&
				(q.ChipletAreaMM2 < p.ChipletAreaMM2 || q.EDP() < p.EDP()) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	return front
}

func pointsEqual(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestParetoFrontMatchesQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(7)) // deterministic fuzz
	synth := func(n int, dupEvery int) []Point {
		pts := make([]Point, n)
		for i := range pts {
			area := 1 + rng.Float64()*10
			if dupEvery > 0 && i%dupEvery == 0 && i > 0 {
				area = pts[i-1].ChipletAreaMM2 // exercise equal-area groups
			}
			pts[i] = Point{
				ChipletAreaMM2: area,
				Seconds:        1 + rng.Float64()*10,
				MappedLayers:   1,
			}
			pts[i].Energy.MAC = 1 + rng.Float64()*100 // EDP = MAC * Seconds
		}
		return pts
	}
	cases := map[string][]Point{
		"empty":      nil,
		"single":     synth(1, 0),
		"small":      synth(10, 0),
		"medium":     synth(200, 0),
		"dup-areas":  synth(150, 3),
		"all-equal":  {{ChipletAreaMM2: 2, Seconds: 1}, {ChipletAreaMM2: 2, Seconds: 1}},
		"large-fuzz": synth(2000, 5),
	}
	for name, pts := range cases {
		r := ExploreResult{Points: pts}
		got, want := r.ParetoFront(), paretoQuadratic(pts)
		if !pointsEqual(got, want) {
			t.Errorf("%s: fast front (%d pts) != quadratic front (%d pts)", name, len(got), len(want))
		}
	}
}

func TestChaosExploreComputePanicIsolated(t *testing.T) {
	// One compute configuration panics: the study completes, the panicked
	// configuration lands in Failed with the structured reason, siblings
	// survive.
	comps := tinySpace().ComputeConfigs(512)
	if len(comps) < 2 {
		t.Fatal("need at least two compute configurations")
	}
	victim := comps[0].Tuple()
	faults.Set(faults.NewInjector(faults.Rule{Site: "dse.explore_compute",
		Match: victim, Kind: faults.KindPanic, Times: 1}))
	defer faults.Clear()
	reg := obs.NewRegistry()
	eng := engine.NewFromConfig(cm, engine.Config{Registry: reg})
	res, err := Explore(ctx, tinyModel(), tinySpace(), 512, 3.0, eng)
	if err != nil {
		t.Fatalf("a panicking configuration must not fail the study: %v", err)
	}
	if got := eng.Stats().Panics; got != 1 {
		t.Errorf("Stats().Panics = %d, want 1", got)
	}
	var logged int
	for _, ev := range reg.Events() {
		if ev.Name == "panic.dse.explore_compute" {
			logged++
		}
	}
	if logged != 1 {
		t.Errorf("%d panic.dse.explore_compute events in the registry, want 1", logged)
	}
	if len(res.Failed) != 1 {
		t.Fatalf("Failed = %v, want exactly the victim", res.Failed)
	}
	f := res.Failed[0]
	if f.HW.Tuple() != victim || !strings.Contains(f.Err, "panic") {
		t.Errorf("failure record %v does not carry the panic", f)
	}
	for _, p := range res.Points {
		if p.HW.Tuple() == victim {
			t.Errorf("panicked configuration leaked a point: %v", p)
		}
	}
	if len(res.Points) == 0 {
		t.Error("sibling configurations degraded")
	}
}

func TestChaosExploreComputePanicRetried(t *testing.T) {
	// One panic in one compute configuration, one point retry allowed: the
	// retry absorbs it and the study equals a clean one.
	clean, err := Explore(ctx, tinyModel(), tinySpace(), 512, 3.0, newEng())
	if err != nil {
		t.Fatal(err)
	}
	faults.Set(faults.NewInjector(faults.Rule{Site: "dse.explore_compute",
		Match: tinySpace().ComputeConfigs(512)[0].Tuple(), Kind: faults.KindPanic, Times: 1}))
	defer faults.Clear()
	eng := engine.NewFromConfig(cm, engine.Config{MaxRetries: 1, Backoff: 1})
	res, err := Explore(ctx, tinyModel(), tinySpace(), 512, 3.0, eng)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := exploreSig(t, res), exploreSig(t, clean); got != want {
		t.Errorf("retried study differs from the clean one:\n got %s\nwant %s", got, want)
	}
	if st := eng.Stats(); st.Panics != 1 || st.Retries != 1 {
		t.Errorf("Stats() = %d panics, %d retries; want 1 and 1", st.Panics, st.Retries)
	}
}

func TestChaosExploreTransientRetryRecovers(t *testing.T) {
	clean, err := Explore(ctx, tinyModel(), tinySpace(), 512, 3.0, newEng())
	if err != nil {
		t.Fatal(err)
	}
	faults.Set(faults.NewInjector(faults.Rule{Site: "engine.search",
		Kind: faults.KindError, Times: 1}))
	defer faults.Clear()
	eng := engine.NewFromConfig(cm, engine.Config{MaxRetries: 2, Backoff: 1})
	res, err := Explore(ctx, tinyModel(), tinySpace(), 512, 3.0, eng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("retry did not absorb the transient: %v", res.Failed)
	}
	if len(res.Points) != len(clean.Points) {
		t.Errorf("recovered study found %d points, clean study %d", len(res.Points), len(clean.Points))
	}
}

// exploreSig projects an ExploreResult for replay-equality checks.
func exploreSig(t *testing.T, r ExploreResult) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Swept   int
		Points  []Point
		Failed  []PointFailure
		Best    Point
		HasBest bool
	}{r.Swept, r.Points, r.Failed, r.Best, r.HasBest})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestChaosExploreKillResumeByteIdentical(t *testing.T) {
	model, space := tinyModel(), tinySpace()

	// Reference: uninterrupted, no journal.
	ref, err := Explore(ctx, model, space, 512, 3.0, newEng())
	if err != nil {
		t.Fatal(err)
	}

	// First run: journaled, cancelled partway through ("kill at 50%").
	path := filepath.Join(t.TempDir(), "explore.jsonl")
	j1, err := ckpt.Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// One sequential worker + cancel at the start of the second compute
	// configuration: exactly one configuration completes and journals.
	faults.Set(faults.NewInjector(faults.Rule{Site: "dse.explore_compute",
		Kind: faults.KindCancel, After: 1, Times: 1, Cancel: cancel}))
	e1 := engine.NewFromConfig(cm, engine.Config{Workers: 1, Journal: j1})
	if _, err := Explore(cctx, model, space, 512, 3.0, e1); !errors.Is(err, context.Canceled) {
		t.Fatalf("first run: err = %v, want context.Canceled", err)
	}
	faults.Clear()
	completed := j1.Appended()
	j1.Close()
	total := len(space.ComputeConfigs(512))
	if completed == 0 || completed >= total {
		t.Fatalf("kill point: %d of %d configurations journaled — want a strict partial study", completed, total)
	}

	// Resume: replays the journaled configurations, evaluates the rest, and
	// reproduces the uninterrupted result exactly.
	j2, err := ckpt.Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	e2 := engine.NewFromConfig(cm, engine.Config{Workers: 2, Journal: j2})
	res, err := Explore(ctx, model, space, 512, 3.0, e2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replayed != completed {
		t.Errorf("Replayed = %d, want %d", res.Replayed, completed)
	}
	if got := e2.Stats().Replayed; got != int64(res.Replayed) {
		t.Errorf("Stats().Replayed = %d, want the study's %d", got, res.Replayed)
	}
	if j2.Appended() != total-completed {
		t.Errorf("resume run appended %d records, want %d", j2.Appended(), total-completed)
	}
	if got, want := exploreSig(t, res), exploreSig(t, ref); got != want {
		t.Errorf("resumed study differs from uninterrupted reference:\n got %s\nwant %s", got, want)
	}
	// The Pareto front of the resumed study matches too (it derives from
	// Points, but this is the user-facing artifact).
	if !pointsEqual(res.ParetoFront(), ref.ParetoFront()) {
		t.Error("Pareto fronts differ after resume")
	}
}

func TestExploreSkipsInvalidAnchors(t *testing.T) {
	// A space whose min/max memory options produce invalid anchor
	// configurations: anchor validation skips them and the study survives on
	// the proportional anchor instead of feeding invalid hardware into the
	// search.
	s := tinySpace()
	s.OL1PerLane = []int{0, 96}
	s.AL1 = []int{0, 4096}
	s.WL1 = []int{0, 32768}
	s.AL2 = []int{0, 65536}
	res, err := Explore(ctx, tinyModel(), s, 512, 3.0, newEng())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Error("study must survive invalid anchors via the proportional anchor")
	}
	for _, p := range res.Points {
		if p.HW.Validate() != nil {
			t.Errorf("invalid configuration leaked into the results: %s", p.HW)
		}
	}
}

func TestExploreDeterministicOrder(t *testing.T) {
	a, err := Explore(ctx, tinyModel(), tinySpace(), 512, 3.0, engine.NewFromConfig(cm, engine.Config{Workers: 4}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Explore(ctx, tinyModel(), tinySpace(), 512, 3.0, engine.NewFromConfig(cm, engine.Config{Workers: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := exploreSig(t, a), exploreSig(t, b); got != want {
		t.Error("exploration output depends on worker interleaving")
	}
}
