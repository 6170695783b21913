package mapper

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"nnbaton/internal/hardware"
	"nnbaton/internal/obs"
	"nnbaton/internal/workload"
)

// isolationCase is one search of the scratch-reuse isolation test together
// with its reference result.
type isolationCase struct {
	name      string
	l         workload.Layer
	hw        hardware.Config
	cfg       Config
	combo     bool // BestPerSpatialCombo instead of SearchAll
	want      []Option
	wantCombo map[string]Option
}

func mustLayer(t *testing.T, m workload.Model, name string) workload.Layer {
	t.Helper()
	l, err := m.Layer(name)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// depthwiseLayer returns the first grouped layer of MobileNetV2.
func depthwiseLayer(t *testing.T, res int) workload.Layer {
	t.Helper()
	for _, l := range workload.MobileNetV2(res).Layers {
		if l.G() > 1 {
			return l
		}
	}
	t.Fatal("MobileNetV2 has no grouped layer")
	return workload.Layer{}
}

// isolationCases spans dense, grouped/depthwise and late layers, ring and
// mesh fabrics, a second compute allocation and a fault mask, so that no
// two consecutive searches of a worker share their tile lists.
func isolationCases(t *testing.T) []isolationCase {
	t.Helper()
	dense := mustLayer(t, workload.ResNet50(64), "res2a_branch2b")
	late := mustLayer(t, workload.VGG16(64), "conv12")
	dw := depthwiseLayer(t, 64)
	ring := hardware.CaseStudy()
	mesh := ring
	mesh.Topology = hardware.TopoMesh
	small := ring
	small.Chiplets, small.Cores, small.Lanes = 2, 4, 16
	degraded := Config{Fault: hardware.FaultMask{Chiplets: 5, Dead: 1 << 2}}
	return []isolationCase{
		{name: "dense/ring/energy", l: dense, hw: ring},
		{name: "dense/mesh/energy", l: dense, hw: mesh},
		{name: "depthwise/ring/energy", l: dw, hw: ring},
		{name: "depthwise/small/energy", l: dw, hw: small},
		{name: "late/degraded/energy", l: late, hw: ring, cfg: degraded},
		{name: "late/mesh/energy", l: late, hw: mesh},
		{name: "dense/combos", l: dense, hw: ring, combo: true},
		{name: "depthwise/combos", l: dw, hw: ring, combo: true},
	}
}

// sameCombos compares two BestPerSpatialCombo results.
func sameCombos(want, got map[string]Option) error {
	if len(want) != len(got) {
		return fmt.Errorf("got %d combos, want %d", len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			return fmt.Errorf("combo %s missing", k)
		}
		if err := sameOptions([]Option{w}, []Option{g}); err != nil {
			return fmt.Errorf("combo %s: %w", k, err)
		}
	}
	return nil
}

// TestSearchScratchIsolation interleaves SearchAll and BestPerSpatialCombo
// over different layers, hardware points and fault masks from
// several goroutines, so pooled worker scratch constantly passes between
// unrelated searches. Every result must equal its reference: the exhaustive
// search for SearchAll, a serial run made before any concurrency for
// BestPerSpatialCombo. Run under -race by make equiv.
func TestSearchScratchIsolation(t *testing.T) {
	cm := hardware.MustCostModel()
	cases := isolationCases(t)
	for i := range cases {
		c := &cases[i]
		c.cfg.KeepTop = 4
		if c.combo {
			c.wantCombo = BestPerSpatialCombo(c.l, c.hw, cm)
			if len(c.wantCombo) == 0 {
				t.Fatalf("%s: no combos", c.name)
			}
			continue
		}
		c.want = SearchExhaustive(c.l, c.hw, cm, c.cfg)
		if len(c.want) == 0 {
			t.Fatalf("%s: no reference options", c.name)
		}
	}
	const goroutines, rounds = 4, 3
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for j := range cases {
					c := cases[(g+j*(r+1))%len(cases)]
					var err error
					if c.combo {
						err = sameCombos(c.wantCombo, BestPerSpatialCombo(c.l, c.hw, cm))
					} else {
						cfg := c.cfg
						cfg.Workers = 1 + (g+r)%2
						err = sameOptions(c.want, SearchAll(c.l, c.hw, cm, cfg))
					}
					if err != nil {
						errs[g] = errors.Join(errs[g], fmt.Errorf("goroutine %d round %d %s: %w", g, r, c.name, err))
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}

func newCounters() *Counters {
	return &Counters{
		Generated: &obs.Counter{}, BoundPruned: &obs.Counter{}, StagePruned: &obs.Counter{},
		Evaluated: &obs.Counter{}, FloorsComputed: &obs.Counter{}, GroupsBuilt: &obs.Counter{},
		HeapPopped: &obs.Counter{},
	}
}

func counterValues(c *Counters) [7]int64 {
	return [7]int64{c.Generated.Value(), c.BoundPruned.Value(), c.StagePruned.Value(),
		c.Evaluated.Value(), c.FloorsComputed.Value(), c.GroupsBuilt.Value(), c.HeapPopped.Value()}
}

// TestSearchScratchReset runs one serial search, then a search of another
// layer on another hardware point, then the first search again. A serial
// search is deterministic, so the repeat must report identical Counters and
// options: a tally or tile memo carried over from the intervening search
// (whose per-core regions overlap the first one's keys) would change both.
func TestSearchScratchReset(t *testing.T) {
	cm := hardware.MustCostModel()
	cases := isolationCases(t)
	first, other := cases[0], cases[3]
	run := func(c isolationCase) ([]Option, [7]int64) {
		ctr := newCounters()
		cfg := c.cfg
		cfg.KeepTop, cfg.Workers, cfg.Counters = 4, 1, ctr
		return SearchAll(c.l, c.hw, cm, cfg), counterValues(ctr)
	}
	want, wantCtr := run(first)
	if wantCtr[0] == 0 {
		t.Fatal("first search generated nothing")
	}
	run(other)
	got, gotCtr := run(first)
	if gotCtr != wantCtr {
		t.Fatalf("repeat counters %v, first run %v", gotCtr, wantCtr)
	}
	requireSameOptions(t, "repeat", want, got)
}

// warmSearchAllocsBound pins the allocations of one warm serial KeepTop-1
// SearchAll of ResNet-50 res2a_branch2b at the case-study point. With pooled
// worker scratch a warm search allocates only its set-up (fabric, subtree
// list, top-K), its result and the Clones of accepted candidates: 42
// allocations when this bound was set, 48 under the group scan, whose visit
// order accepts a few more candidates, and 30 since the search collects its
// split lists on the stack. The bound is twice the first. Fresh
// scratch per search costs about 70 more allocations as the group lists and
// the tile memos regrow (120 in a mutated copy of the group scan), and the
// pre-pool search about 3,000, so either fails. KeepTop 1 keeps the Clones, whose number
// varies with the visit order, from drowning that difference.
const warmSearchAllocsBound = 84

// TestSearchAllWarmAllocs fails when a warm search stops reusing its worker
// scratch. The race detector makes sync.Pool drop items at random, so the
// count is only meaningful without it.
func TestSearchAllWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	cm := hardware.MustCostModel()
	l := mustLayer(t, workload.ResNet50(224), "res2a_branch2b")
	hw := hardware.CaseStudy()
	cfg := Config{KeepTop: 1, Workers: 1}
	if len(SearchAll(l, hw, cm, cfg)) == 0 {
		t.Fatal("no options")
	}
	n := testing.AllocsPerRun(20, func() { SearchAll(l, hw, cm, cfg) })
	t.Logf("warm SearchAll: %.0f allocs", n)
	if n > warmSearchAllocsBound {
		t.Fatalf("warm SearchAll allocates %.0f times, bound %d", n, warmSearchAllocsBound)
	}
}
