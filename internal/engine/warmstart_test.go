package engine

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"nnbaton/internal/hardware"
	"nnbaton/internal/mapper"
	"nnbaton/internal/mapping"
	"nnbaton/internal/store"
	"nnbaton/internal/workload"
)

// warmSweepHWs is a small neighborhood of hardware points around the case
// study — the shape of a DSE sweep's inner loop, where warm-starting earns
// its keep.
func warmSweepHWs() []hardware.Config {
	base := hardware.CaseStudy()
	var hws []hardware.Config
	for _, cores := range []int{base.Cores / 2, base.Cores, base.Cores * 2} {
		for _, al1 := range []int{base.AL1Bytes, base.AL1Bytes * 2} {
			hw := base
			hw.Cores = cores
			hw.AL1Bytes = al1
			hws = append(hws, hw)
		}
	}
	return hws
}

// sweepFingerprint reduces a sweep to its decision-relevant bytes: every
// point's per-layer mappings, energies and cycles, in point order.
func sweepFingerprint(t *testing.T, pts []SweepPoint) []byte {
	t.Helper()
	var fps [][]byte
	for _, pt := range pts {
		if pt.Err != nil {
			t.Fatalf("sweep point %s failed: %v", pt.HW.Tuple(), pt.Err)
		}
		for _, res := range pt.Results {
			fps = append(fps, modelFingerprint(t, res))
		}
	}
	raw, err := json.Marshal(fps)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestWarmStartSweepByteIdentical is the warm-start acceptance test: a sweep
// with cross-point seeding enabled must produce byte-identical results to the
// same sweep with it disabled, while actually seeding searches (hits > 0) —
// a sound seed changes how fast the frontier converges, never what it
// returns.
func TestWarmStartSweepByteIdentical(t *testing.T) {
	models := []workload.Model{tinyModel()}
	hws := warmSweepHWs()

	eCold := NewFromConfig(cm, Config{DisableWarmStart: true})
	coldPts, err := eCold.EvalSweep(bg, models, hws, mapper.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st := eCold.Stats(); st.WarmStartHits != 0 || st.WarmStartMisses != 0 {
		t.Errorf("disabled warm-start still ran: %+v", st)
	}

	// One engine worker evaluates the points one after another in neighbor
	// order, so each point's hints exist before its neighbor searches; with
	// parallel points, adjacent ones can search concurrently and every
	// search misses.
	eWarm := NewFromConfig(cm, Config{Workers: 1})
	warmPts, err := eWarm.EvalSweep(bg, models, hws, mapper.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := eWarm.Stats()
	if st.WarmStartHits == 0 {
		t.Errorf("warm sweep never seeded a search: %+v", st)
	}
	if st.WarmStartSeedGap < 0 {
		t.Errorf("negative cumulative seed gap %d: a seed undercut the k-th best, which an admissible seed cannot", st.WarmStartSeedGap)
	}

	if cold, warm := sweepFingerprint(t, coldPts), sweepFingerprint(t, warmPts); !bytes.Equal(cold, warm) {
		t.Errorf("warm sweep differs from cold sweep:\n%s\nvs\n%s", cold, warm)
	}

	// The funnel and warm-start tallies surface through Stats.String for the
	// CLI -stats flag.
	rendered := st.String()
	for _, want := range []string{"floors", "heap pops", "warm-start"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("Stats.String() = %q missing %q", rendered, want)
		}
	}
}

// poisonHints replaces every hint entry's mappings with hostile garbage:
// a zero mapping (infeasible everywhere) and a plausible-looking mapping
// driven far outside any search space by an absurd channel tile.
func poisonHints(e *Evaluator) int {
	e.hintMu.Lock()
	defer e.hintMu.Unlock()
	poisoned := 0
	for shape, ents := range e.hints {
		for i := range ents {
			bogus := ents[i].maps[0]
			bogus.COt = 1 << 20
			ents[i].maps = []mapping.Mapping{{}, bogus}
			poisoned++
		}
		e.hints[shape] = ents
	}
	return poisoned
}

// TestWarmStartPoisonedHintsHarmless mirrors the TestDiskCache* poisoning
// tests at the hint layer: hints are validated like disk results — membership
// checked, cost re-derived from scratch — so a poisoned hint table yields no
// seed and degrades to a cold search, never to a wrong answer.
func TestWarmStartPoisonedHintsHarmless(t *testing.T) {
	hws := warmSweepHWs()
	model := tinyModel()

	eClean := NewFromConfig(cm, Config{DisableWarmStart: true})
	cleanRes, err := eClean.EvalModel(bg, model, hws[3], mapper.Config{})
	if err != nil {
		t.Fatal(err)
	}

	e := NewFromConfig(cm, Config{})
	if _, err := e.EvalModel(bg, model, hws[0], mapper.Config{}); err != nil {
		t.Fatal(err)
	}
	if poisoned := poisonHints(e); poisoned == 0 {
		t.Fatal("first point recorded no hints to poison")
	}
	res, err := e.EvalModel(bg, model, hws[3], mapper.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.WarmStartHits != 0 {
		t.Errorf("poisoned hints produced %d sound seeds", st.WarmStartHits)
	}
	if st.WarmStartMisses == 0 {
		t.Error("poisoned hints were never even probed")
	}
	if !bytes.Equal(modelFingerprint(t, cleanRes), modelFingerprint(t, res)) {
		t.Error("poisoned hint table changed the results")
	}
}

// TestWarmStartAcrossDiskCache pins the cross-shard hint path: a fresh
// evaluator that replays another process's searches from the persistent cache
// inherits their mappings as warm-start hints for its own fresh points —
// after the same revalidation any disk result gets — and stays
// byte-identical to a fully cold evaluator.
func TestWarmStartAcrossDiskCache(t *testing.T) {
	hws := warmSweepHWs()
	model := tinyModel()
	models := []workload.Model{model}

	eCold := NewFromConfig(cm, Config{DisableWarmStart: true})
	coldPts, err := eCold.EvalSweep(bg, models, hws, mapper.Config{})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Shard 1 solves the first point and persists its searches.
	shard1 := NewFromConfig(cm, Config{Cache: s})
	if _, err := shard1.EvalModel(bg, model, hws[0], mapper.Config{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Shard 2 (fresh process: fresh evaluator, reopened store) sweeps every
	// point: point 0 replays from disk and its mappings seed the rest.
	s2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	shard2 := NewFromConfig(cm, Config{Cache: s2})
	warmPts, err := shard2.EvalSweep(bg, models, hws, mapper.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := shard2.Stats()
	if st.DiskHits == 0 {
		t.Errorf("shard 2 never hit the persistent cache: %+v", st)
	}
	if st.WarmStartHits == 0 {
		t.Errorf("disk-replayed point seeded no fresh search: %+v", st)
	}
	if cold, warm := sweepFingerprint(t, coldPts), sweepFingerprint(t, warmPts); !bytes.Equal(cold, warm) {
		t.Error("cross-shard warm sweep differs from the cold sweep")
	}
}

// TestNeighborOrderSerpentine pins NeighborOrder's two contracts: it is a
// permutation, and on a full cross-product grid consecutive points differ in
// exactly one axis by exactly one rank step (the reflected-Gray property the
// warm-start locality argument rests on).
func TestNeighborOrderSerpentine(t *testing.T) {
	base := hardware.CaseStudy()
	var hws []hardware.Config
	for _, ch := range []int{2, 4, 8} {
		for _, cores := range []int{4, 8} {
			for _, al1 := range []int{base.AL1Bytes, 2 * base.AL1Bytes, 4 * base.AL1Bytes} {
				hw := base
				hw.Chiplets = ch
				hw.Cores = cores
				hw.AL1Bytes = al1
				hws = append(hws, hw)
			}
		}
	}
	order := NeighborOrder(hws)
	if len(order) != len(hws) {
		t.Fatalf("order has %d entries for %d points", len(order), len(hws))
	}
	seen := make([]bool, len(hws))
	for _, i := range order {
		if i < 0 || i >= len(hws) || seen[i] {
			t.Fatalf("order %v is not a permutation", order)
		}
		seen[i] = true
	}
	rank := func(hw hardware.Config) [3]int {
		r := [3]int{}
		for i, v := range []int{2, 4, 8} {
			if hw.Chiplets == v {
				r[0] = i
			}
		}
		if hw.Cores == 8 {
			r[1] = 1
		}
		for i, v := range []int{base.AL1Bytes, 2 * base.AL1Bytes, 4 * base.AL1Bytes} {
			if hw.AL1Bytes == v {
				r[2] = i
			}
		}
		return r
	}
	for k := 1; k < len(order); k++ {
		a, b := rank(hws[order[k-1]]), rank(hws[order[k]])
		diff, step := 0, 0
		for ax := 0; ax < 3; ax++ {
			if a[ax] != b[ax] {
				diff++
				step = a[ax] - b[ax]
			}
		}
		if diff != 1 || (step != 1 && step != -1) {
			t.Fatalf("step %d: %v -> %v changes %d axes (delta %d), want a single unit step",
				k, a, b, diff, step)
		}
	}
}
