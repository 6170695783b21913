package mapper

import (
	"fmt"
	"math/rand"
	"testing"

	"nnbaton/internal/hardware"
	"nnbaton/internal/mapping"
	"nnbaton/internal/obs"
	"nnbaton/internal/workload"
)

// layerShape is the deduplication key of the model zoo: layers that agree on
// it search identical mapping spaces.
type layerShape struct {
	HO, WO, CO, CI, R, S, StrideH, StrideW, PadH, PadW, Groups int
}

func shapeOf(l workload.Layer) layerShape {
	return layerShape{l.HO, l.WO, l.CO, l.CI, l.R, l.S, l.StrideH, l.StrideW, l.PadH, l.PadW, l.Groups}
}

// uniqueZooLayers returns one representative per distinct layer shape across
// the whole model zoo at the given input resolution: the four benchmark CNNs
// and then MobileNetV2, whose depthwise layers are the zoo's grouped ones.
func uniqueZooLayers(resolution int) []workload.Layer {
	seen := make(map[layerShape]bool)
	var out []workload.Layer
	for _, m := range append(workload.Models(resolution), workload.MobileNetV2(resolution)) {
		for _, l := range m.Layers {
			k := shapeOf(l)
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, l)
		}
	}
	return out
}

// requireSameOptions asserts two option lists agree on mappings, energies
// and cycles.
func requireSameOptions(t *testing.T, ctx string, want, got []Option) {
	t.Helper()
	if err := sameOptions(want, got); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
}

// sameOptions reports how two option lists disagree on mappings, energies
// and cycles, or nil when they agree.
func sameOptions(want, got []Option) error {
	if len(want) != len(got) {
		return fmt.Errorf("got %d options, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Analysis.Map != got[i].Analysis.Map {
			return fmt.Errorf("option %d mapping mismatch:\n got %+v\nwant %+v",
				i, got[i].Analysis.Map, want[i].Analysis.Map)
		}
		if want[i].Energy != got[i].Energy {
			return fmt.Errorf("option %d energy mismatch: got %+v want %+v", i, got[i].Energy, want[i].Energy)
		}
		if want[i].Cycles != got[i].Cycles {
			return fmt.Errorf("option %d cycles mismatch: got %d want %d", i, got[i].Cycles, want[i].Cycles)
		}
	}
	return nil
}

// TestSearchAllMatchesExhaustiveZoo holds the pruned, parallel SearchAll to
// the exhaustive reference over every distinct layer shape of the model zoo
// at the case-study hardware point.
func TestSearchAllMatchesExhaustiveZoo(t *testing.T) {
	hw := hardware.CaseStudy()
	cm := hardware.MustCostModel()
	layers := uniqueZooLayers(224)
	if testing.Short() {
		layers = layers[:min(12, len(layers))]
	}
	cfg := Config{KeepTop: 8}
	for _, l := range layers {
		want := SearchExhaustive(l, hw, cm, cfg)
		got := SearchAll(l, hw, cm, cfg)
		requireSameOptions(t, l.Model+"/"+l.Name, want, got)
	}
}

// randomHW perturbs the case-study point into a Table II-style variant.
func randomHW(rng *rand.Rand) hardware.Config {
	hw := hardware.CaseStudy()
	hw.Chiplets = []int{1, 2, 4, 6, 8}[rng.Intn(5)]
	hw.Cores = []int{4, 8, 16}[rng.Intn(3)]
	hw.Lanes = []int{4, 8, 16}[rng.Intn(3)]
	hw.Vector = []int{8, 16}[rng.Intn(2)]
	scale := []int{1, 2, 4}[rng.Intn(3)]
	hw.OL1Bytes *= scale
	hw.AL1Bytes *= scale
	hw.WL1Bytes *= scale
	hw.AL2Bytes *= scale
	hw.OL2Bytes *= scale
	return hw
}

// TestSearchAllMatchesExhaustiveRandomized fuzzes the equivalence across
// hardware points, KeepTop values, rotation settings and worker
// counts with a fixed seed.
func TestSearchAllMatchesExhaustiveRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	cm := hardware.MustCostModel()
	layers := uniqueZooLayers(64)
	trials := 24
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		l := layers[rng.Intn(len(layers))]
		hw := randomHW(rng)
		if hw.Validate() != nil {
			continue
		}
		// Drawn and discarded: the trials keep the layers and hardware they
		// sampled when this draw still chose between search objectives.
		rng.Intn(2)
		cfg := Config{
			KeepTop:         []int{1, 3, 8}[rng.Intn(3)],
			DisableRotation: rng.Intn(4) == 0,
			Workers:         []int{0, 1, 2, 5}[rng.Intn(4)],
		}
		ctx := fmt.Sprintf("trial %d: %s/%s on %s cfg=%+v", trial, l.Model, l.Name, hw.Tuple(), cfg)
		want := SearchExhaustive(l, hw, cm, cfg)
		got := SearchAll(l, hw, cm, cfg)
		requireSameOptions(t, ctx, want, got)
	}
}

// tableIIMemory holds the memory axes of Table II as dse.TableII lists
// them (dse imports mapper, so the tests here cannot read it): O-L1 bytes
// per lane, A-L1 and W-L1 bytes per core, A-L2 bytes per chiplet. Each
// axis starts at its minimum.
var tableIIMemory = struct{ OL1PerLane, AL1, WL1, AL2 []int }{
	OL1PerLane: []int{48, 96, 144},
	AL1:        []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10},
	WL1:        []int{2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 96 << 10, 144 << 10, 256 << 10},
	AL2:        []int{32 << 10, 64 << 10, 96 << 10, 128 << 10, 192 << 10, 256 << 10},
}

// withTableIIMemory returns comp with the memory point (o, a1, w1, a2) of
// tableIIMemory's axes, O-L2 sized at half the A-L2 as the explore flow's
// anchors size it.
func withTableIIMemory(comp hardware.Config, o, a1, w1, a2 int) hardware.Config {
	hw := comp
	hw.OL1Bytes = tableIIMemory.OL1PerLane[o] * hw.Lanes
	hw.AL1Bytes = tableIIMemory.AL1[a1]
	hw.WL1Bytes = tableIIMemory.WL1[w1]
	hw.AL2Bytes = tableIIMemory.AL2[a2]
	hw.OL2Bytes = hw.AL2Bytes / 2
	return hw
}

// tableIIHW draws a Table II compute allocation and memory point. Each
// memory axis takes its minimum half of the time and a uniform size
// otherwise, so the draws starve W-L1 and A-L2 often: at the minimum W-L1
// many layers' weight chunk fits no core, and a rotating split's chunk
// fits neither the W-L1 pool nor the A-L2.
func tableIIHW(rng *rand.Rand) hardware.Config {
	axis := func(n int) int {
		if rng.Intn(2) == 0 {
			return 0
		}
		return rng.Intn(n)
	}
	comp := hardware.Config{
		Chiplets: []int{1, 2, 4, 8}[rng.Intn(4)],
		Cores:    []int{1, 2, 4, 8, 16}[rng.Intn(5)],
		Lanes:    []int{2, 4, 8, 16}[rng.Intn(4)],
		Vector:   []int{2, 4, 8, 16}[rng.Intn(4)],
	}
	m := tableIIMemory
	return withTableIIMemory(comp, axis(len(m.OL1PerLane)), axis(len(m.AL1)), axis(len(m.WL1)), axis(len(m.AL2)))
}

// TestSearchAllMatchesExhaustiveTableII holds SearchAll to the exhaustive
// reference on Table II memory points, minima included, where the scan's
// buffer-need rejects fire at every level (newSearch, chipletTiles and
// planarFits): a search
// whose W-L1 need fits no core returns nothing on both sides, and the
// rotating splits lose chiplet tiles and planar pairs. The test fails
// unless some trial places nothing and some trial places something.
func TestSearchAllMatchesExhaustiveTableII(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	cm := hardware.MustCostModel()
	layers := uniqueZooLayers(64)
	var empty, placed int
	for trial := 0; trial < 40; trial++ {
		l := layers[rng.Intn(len(layers))]
		hw := tableIIHW(rng)
		if hw.Validate() != nil {
			continue
		}
		cfg := Config{
			KeepTop: []int{1, 3, 8}[rng.Intn(3)],
			Workers: []int{0, 1, 2}[rng.Intn(3)],
		}
		ctx := fmt.Sprintf("trial %d: %s/%s on %s cfg=%+v", trial, l.Model, l.Name, hw.Tuple(), cfg)
		want := SearchExhaustive(l, hw, cm, cfg)
		got := SearchAll(l, hw, cm, cfg)
		requireSameOptions(t, ctx, want, got)
		if len(want) == 0 {
			empty++
		} else {
			placed++
		}
	}
	t.Logf("%d trials placed nothing, %d placed something", empty, placed)
	if empty == 0 || placed == 0 {
		t.Fatal("want trials of both kinds")
	}
}

// TestScanFilterExact pins the scan's buffer-need rejects as exact: over
// the zoo layers at 4096-MAC Table II compute allocations and Table II
// memory points, minima included, the cells the scan's groups reach
// (buildGroups: newSearch's W-L1 check, the chiplet-tile and planar-pair
// filters, the core-tile list) are exactly the walker's probes that pass
// Feasible, and newSearch returns nil exactly when the W-L1 need fits no
// core. A missing cell would be a candidate the search never sees; an
// extra one a cell the scan bounds only for FeasibleShape to reject. The
// test fails unless each reject — W-L1, the rotating-P weight chunk and
// the rotating-C A-L2 chunk — rules out some probe.
func TestScanFilterExact(t *testing.T) {
	cm := hardware.MustCostModel()
	layers := uniqueZooLayers(64)
	computes := []hardware.Config{
		{Chiplets: 2, Cores: 8, Lanes: 16, Vector: 16},
		{Chiplets: 4, Cores: 4, Lanes: 16, Vector: 16},
		{Chiplets: 8, Cores: 8, Lanes: 8, Vector: 8},
	}
	// Memory points as (O-L1, A-L1, W-L1, A-L2) axis indices: all minima,
	// all maxima, and A-L2 alone at its minimum.
	points := [][4]int{{0, 0, 0, 0}, {2, 7, 8, 5}, {2, 7, 4, 0}}
	if testing.Short() {
		layers = layers[:min(12, len(layers))]
	}
	// A cell is keyed by its subtree's index in the canonical order, which
	// newSearch keeps, and its five tile fields.
	key := func(st int, p *mapping.Mapping) [6]int32 {
		return [6]int32{int32(st), int32(p.COt), int32(p.HOt), int32(p.WOt), int32(p.HOc), int32(p.WOc)}
	}
	var wl1, chunk, al2 int
	for _, comp := range computes {
		for _, pt := range points {
			hw := withTableIIMemory(comp, pt[0], pt[1], pt[2], pt[3])
			for _, l := range layers {
				ctx := fmt.Sprintf("%s/%s on %s", l.Model, l.Name, hw.Tuple())
				// A search whose W-L1 need fits no core builds nothing.
				srch := newSearch(l, hw, cm, Config{})
				var empty mapping.Mapping
				if starved := empty.BufferNeeds(&l, &hw).WL1 > int64(hw.WL1Bytes); starved != (srch == nil) {
					t.Fatalf("%s: W-L1 need exceeds the core's: %v; newSearch returned nil: %v", ctx, starved, srch == nil)
				}
				reach := make(map[[6]int32]bool)
				if srch != nil {
					srch.forEachReachable(func(c *boundCell) {
						k := key(int(c.g.st), &c.probe)
						if reach[k] {
							t.Fatalf("%s: scan reaches %+v twice", ctx, c.probe)
						}
						reach[k] = true
					})
				}
				feasible := 0
				for si, st := range subtrees(nil, l, hw, Config{}) {
					st.walk(l, hw, func(p mapping.Mapping) {
						ok := p.Feasible(l, hw)
						if ok != reach[key(si, &p)] {
							t.Fatalf("%s: probe %+v feasible=%v, reached by the scan=%v", ctx, p, ok, !ok)
						}
						if ok {
							feasible++
							return
						}
						n := p.BufferNeeds(&l, &hw)
						switch {
						case n.WL1 > int64(hw.WL1Bytes):
							wl1++
						case n.RotatingChunk > int64(hw.WL1Bytes)*n.WeightShare:
							chunk++
						case p.Rotate && p.PackageSpatial == mapping.SpatialC && n.AL2 > int64(hw.AL2Bytes):
							al2++
						}
					})
				}
				if feasible != len(reach) {
					t.Fatalf("%s: scan reaches %d cells, %d probes are feasible", ctx, len(reach), feasible)
				}
			}
		}
	}
	t.Logf("probes ruled out: %d on W-L1, %d on the rotating-P chunk, %d on the rotating-C A-L2", wl1, chunk, al2)
	if wl1 == 0 || chunk == 0 || al2 == 0 {
		t.Fatalf("a reject never fired: W-L1 %d, rotating-P chunk %d, rotating-C A-L2 %d", wl1, chunk, al2)
	}
}

// TestSearchAllWorkersInvariant pins the worker-count independence: the
// deterministic merge must make 1-worker and many-worker searches agree
// option for option.
func TestSearchAllWorkersInvariant(t *testing.T) {
	hw := hardware.CaseStudy()
	cm := hardware.MustCostModel()
	l := workload.ResNet50(224).Layers[10]
	cfg := Config{KeepTop: 8, Workers: 1}
	serial := SearchAll(l, hw, cm, cfg)
	for _, w := range []int{2, 3, 8} {
		cfg.Workers = w
		requireSameOptions(t, fmt.Sprintf("workers=%d", w), serial, SearchAll(l, hw, cm, cfg))
	}
}

// TestSearchCountersConsistent checks the funnel accounting under lazy
// generation: every materialized candidate lands in exactly one outcome
// bucket, the scan never materializes more than the exhaustive candidate
// count (nor more cells than candidates, each cell having at least one
// temporal variant, nor expands more groups than it built), and a
// KeepTop large enough to disable pruning recovers the exhaustive count
// exactly — the materialization saving is pruning, not omission.
func TestSearchCountersConsistent(t *testing.T) {
	hw := hardware.CaseStudy()
	cm := hardware.MustCostModel()
	for _, l := range []workload.Layer{
		workload.ResNet50(224).Layers[10],
		workload.MobileNetV2(224).Layers[4],
	} {
		ctr := &Counters{
			Generated:      &obs.Counter{},
			BoundPruned:    &obs.Counter{},
			StagePruned:    &obs.Counter{},
			Evaluated:      &obs.Counter{},
			FloorsComputed: &obs.Counter{},
			GroupsBuilt:    &obs.Counter{},
			HeapPopped:     &obs.Counter{},
		}
		cfg := Config{KeepTop: 8, Counters: ctr}
		SearchAll(l, hw, cm, cfg)

		gen := ctr.Generated.Value()
		sum := ctr.BoundPruned.Value() + ctr.StagePruned.Value() + ctr.Evaluated.Value()
		if gen == 0 {
			t.Fatalf("%s: no candidates generated", l.Name)
		}
		if gen != sum {
			t.Fatalf("%s: generated=%d != bound+stage+evaluated=%d", l.Name, gen, sum)
		}
		if ctr.FloorsComputed.Value() == 0 || ctr.HeapPopped.Value() == 0 {
			t.Fatalf("%s: funnel stages unobserved: floors=%d popped=%d",
				l.Name, ctr.FloorsComputed.Value(), ctr.HeapPopped.Value())
		}
		if ctr.FloorsComputed.Value() > gen {
			t.Fatalf("%s: floors=%d > generated=%d (a floor covers >=1 variant)",
				l.Name, ctr.FloorsComputed.Value(), gen)
		}
		if ctr.HeapPopped.Value() > ctr.GroupsBuilt.Value() {
			t.Fatalf("%s: expanded %d groups of %d built",
				l.Name, ctr.HeapPopped.Value(), ctr.GroupsBuilt.Value())
		}

		var exhaustive int64
		enumerate(l, hw, cm, cfg, func(Option) { exhaustive++ })
		if gen > exhaustive {
			t.Fatalf("%s: generated=%d > exhaustive %d", l.Name, gen, exhaustive)
		}
		if ctr.BoundPruned.Value() == 0 && ctr.StagePruned.Value() == 0 {
			t.Logf("%s: note: nothing pruned (gen=%d)", l.Name, gen)
		}
	}

	// With pruning disabled by an unreachable KeepTop, laziness changes
	// nothing: every feasible candidate is materialized and evaluated. A
	// downscaled layer keeps the deliberately unpruned run cheap.
	l := workload.MobileNetV2(64).Layers[4]
	var exhaustive int64
	enumerate(l, hw, cm, Config{KeepTop: 8}, func(Option) { exhaustive++ })
	all := &Counters{Generated: &obs.Counter{}, Evaluated: &obs.Counter{}}
	SearchAll(l, hw, cm, Config{KeepTop: int(exhaustive) + 1, Counters: all})
	if all.Generated.Value() != exhaustive {
		t.Fatalf("unpruned generated=%d, exhaustive evaluates %d", all.Generated.Value(), exhaustive)
	}
	if all.Evaluated.Value() != exhaustive {
		t.Fatalf("unpruned evaluated=%d, exhaustive evaluates %d", all.Evaluated.Value(), exhaustive)
	}
}

// TestBestPerSpatialComboMatchesExhaustive compares the pruned Fig 11 helper
// against a direct enumerate-based reference with the same deterministic
// tie-break.
func TestBestPerSpatialComboMatchesExhaustive(t *testing.T) {
	hw := hardware.CaseStudy()
	cm := hardware.MustCostModel()
	l := workload.ResNet50(224).Layers[10]

	want := make(map[string]Option)
	ref := make(map[string]*topK)
	enumerate(l, hw, cm, Config{KeepTop: 1}, func(o Option) {
		k := o.SpatialCombo()
		if ref[k] == nil {
			ref[k] = newTopK(1)
		}
		ref[k].add(o)
	})
	for k, tk := range ref {
		want[k] = tk.opts[0]
	}

	got := BestPerSpatialCombo(l, hw, cm)
	if len(got) != len(want) {
		t.Fatalf("combo count mismatch: got %d want %d", len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("combo %s missing", k)
		}
		if g.Analysis.Map != w.Analysis.Map || g.Energy != w.Energy || g.Cycles != w.Cycles {
			t.Fatalf("combo %s mismatch:\n got %+v e=%v c=%d\nwant %+v e=%v c=%d",
				k, g.Analysis.Map, g.Energy.Total(), g.Cycles, w.Analysis.Map, w.Energy.Total(), w.Cycles)
		}
	}
}

// randomFault draws a mask of ring positions for the surviving chiplet count
// so SearchAll and SearchExhaustive can be compared on degraded fabrics: the
// envelope hardware has hw.Chiplets survivors among mask.Chiplets physical
// positions.
func randomFault(rng *rand.Rand, survivors int) hardware.FaultMask {
	positions := survivors + 1 + rng.Intn(hardware.MaxChiplets-survivors)
	var dead uint8
	killed := 0
	for i := 0; i < positions && killed < positions-survivors; i++ {
		if rng.Intn(2) == 0 || positions-i == positions-survivors-killed {
			dead |= 1 << i
			killed++
		}
	}
	return hardware.FaultMask{Chiplets: uint8(positions), Dead: dead}
}

// TestSearchAllMatchesExhaustiveDegraded fuzzes the equivalence on degraded
// rings: the pruned, parallel search must agree with the exhaustive
// reference under fault masks that reroute D2D hops.
func TestSearchAllMatchesExhaustiveDegraded(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	cm := hardware.MustCostModel()
	layers := uniqueZooLayers(64)
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		l := layers[rng.Intn(len(layers))]
		hw := randomHW(rng)
		hw.Chiplets = []int{1, 2, 3, 4, 6}[rng.Intn(5)]
		if hw.Validate() != nil {
			continue
		}
		// Drawn and discarded: the trials keep the layers and hardware they
		// sampled when this draw still chose between search objectives.
		rng.Intn(2)
		cfg := Config{
			KeepTop: []int{1, 8}[rng.Intn(2)],
			Workers: []int{0, 1, 3}[rng.Intn(3)],
			Fault:   randomFault(rng, hw.Chiplets),
		}
		ctx := fmt.Sprintf("trial %d: %s/%s on %s fault=%s cfg=%+v",
			trial, l.Model, l.Name, hw.Tuple(), cfg.Fault, cfg)
		want := SearchExhaustive(l, hw, cm, cfg)
		got := SearchAll(l, hw, cm, cfg)
		requireSameOptions(t, ctx, want, got)
	}
}

// TestSearchDegradedCostsMore pins the physics: rerouting around a dead
// position can only add D2D energy and ring latency, never remove them.
func TestSearchDegradedCostsMore(t *testing.T) {
	cm := hardware.MustCostModel()
	hw := hardware.CaseStudy()
	hw.Chiplets = 3 // three survivors of a 4-position package
	l := workload.ResNet50(224).Layers[10]
	healthy, err := Search(l, hw, cm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	degraded, err := Search(l, hw, cm, Config{Fault: hardware.FaultMask{Chiplets: 4, Dead: 1 << 3}})
	if err != nil {
		t.Fatal(err)
	}
	if degraded.Energy.Total() < healthy.Energy.Total() {
		t.Errorf("degraded energy %.1f < healthy %.1f", degraded.Energy.Total(), healthy.Energy.Total())
	}
	if degraded.Energy.D2D < healthy.Energy.D2D {
		t.Errorf("degraded D2D energy %.1f < healthy %.1f", degraded.Energy.D2D, healthy.Energy.D2D)
	}
}
