package dse

import (
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"nnbaton/internal/c3p"
	"nnbaton/internal/ckpt"
	"nnbaton/internal/energy"
	"nnbaton/internal/engine"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapper"
	"nnbaton/internal/obs"
	"nnbaton/internal/workload"
)

// referencePriceGrid is the straightforward gridPricer: every memory point
// checks every pooled candidate of every layer with Mapping.Feasible and
// prices it from scratch. priceGrid must agree with it exactly.
func referencePriceGrid(model workload.Model, space Space, comp hardware.Config, pool [][]*c3p.Analysis,
	areaLimitMM2 float64, fab *mapper.Fabric, eng *engine.Evaluator) []Point {
	var points []Point
	for _, olPerLane := range space.OL1PerLane {
		for _, al1 := range space.AL1 {
			for _, wl1 := range space.WL1 {
				for _, al2 := range space.AL2 {
					// §VI-B2 invalid-case pruning.
					if al2 < al1 {
						continue
					}
					hw := comp
					hw.OL1Bytes = olPerLane * comp.Lanes
					hw.AL1Bytes, hw.WL1Bytes, hw.AL2Bytes = al1, wl1, al2
					hw.OL2Bytes = al2 / 2
					pt, ok := priceMemoryPoint(model, hw, pool, areaLimitMM2, fab, eng.CostModel())
					if ok {
						points = append(points, pt)
					}
				}
			}
		}
	}
	return points
}

// priceMemoryPoint re-prices the pooled candidates at one memory allocation
// through the compute configuration's pricing kernel and returns the
// aggregated point; ok is false when some layer has no valid candidate at
// these buffer sizes.
func priceMemoryPoint(model workload.Model, hw hardware.Config, pool [][]*c3p.Analysis,
	areaLimitMM2 float64, fab *mapper.Fabric, cm *hardware.CostModel) (Point, bool) {
	pt := Point{HW: hw, ChipletAreaMM2: cm.ChipletAreaMM2(hw)}
	pt.MeetsArea = areaLimitMM2 <= 0 || pt.ChipletAreaMM2 <= areaLimitMM2
	for li, l := range model.Layers {
		bestE := -1.0
		var bestBr energy.Breakdown
		var bestCycles int64
		for _, a := range pool[li] {
			if !a.Map.Feasible(l, hw) {
				continue
			}
			tr := a.TrafficAt(hw.AL1Bytes, hw.WL1Bytes, hw.AL2Bytes)
			br := fab.Energy(&tr, &hw)
			if bestE >= 0 && br.Total() >= bestE {
				continue
			}
			cycles, err := fab.Cycles(a, tr)
			if err != nil {
				continue
			}
			bestE, bestBr, bestCycles = br.Total(), br, cycles
		}
		if bestE < 0 {
			pt.SkippedLayers++
			continue
		}
		pt.Energy = pt.Energy.Add(bestBr)
		pt.Seconds += hardware.Seconds(bestCycles)
		pt.MappedLayers++
	}
	return pt, pt.MappedLayers == len(model.Layers)
}

// repeatedModel repeats tinyModel's two shapes under new names, so explore
// must share one candidate list between layers of equal shape.
func repeatedModel() workload.Model {
	m := tinyModel()
	m.Name = "repeated"
	conv3, conv4 := m.Layers[1], m.Layers[0]
	conv3.Name, conv4.Name = "conv3", "conv4"
	m.Layers = append(m.Layers, conv3, conv4)
	return m
}

// repricingSpace binds every buffer check the re-pricing hoists: 24 B/lane
// of O-L1 is too small for core tiles over 8 positions, 1.5–2 KB of W-L1
// holds the streaming chunk but not every rotating chunk, and a 64 KB A-L1
// option above the 32 KB A-L2 option leaves invalid cells.
func repricingSpace() Space {
	s := tinySpace()
	s.OL1PerLane = []int{24, 96}
	s.AL1 = []int{1024, 65536}
	s.WL1 = []int{1536, 2048, 32768}
	s.AL2 = []int{32768, 131072}
	return s
}

// bindingTally counts, over the reference's own calls, the candidate checks
// that only one buffer rejects, to show the space exercises them.
type bindingTally struct {
	mu                  sync.Mutex
	ol1Only, rotateOnly int
}

func (b *bindingTally) pricer(model workload.Model, space Space, comp hardware.Config, pool [][]*c3p.Analysis,
	areaLimitMM2 float64, fab *mapper.Fabric, eng *engine.Evaluator) []Point {
	ol1, rotate := 0, 0
	for li, l := range model.Layers {
		for _, a := range pool[li] {
			n := a.Map.BufferNeeds(&l, &comp)
			for _, perLane := range space.OL1PerLane {
				for _, al1 := range space.AL1 {
					for _, wl1 := range space.WL1 {
						for _, al2 := range space.AL2 {
							if n.OL1 > int64(perLane*comp.Lanes) && n.FitsAt(al1, wl1, al2) {
								ol1++
							}
							if n.RotatingChunk > int64(wl1)*n.WeightShare && n.WL1 <= int64(wl1) {
								rotate++
							}
						}
					}
				}
			}
		}
	}
	b.mu.Lock()
	b.ol1Only += ol1
	b.rotateOnly += rotate
	b.mu.Unlock()
	return referencePriceGrid(model, space, comp, pool, areaLimitMM2, fab, eng)
}

// TestExploreMatchesReference holds Explore and an ExploreRange shard to the
// per-point reference re-pricing, on ring, mesh and torus: the results must
// be deeply equal and the journals, merged to canonical order, byte-equal.
func TestExploreMatchesReference(t *testing.T) {
	const macs, area = 512, 3.0
	model := repeatedModel()
	type run func(eng *engine.Evaluator) (ExploreResult, error)
	journaled := func(r run) (ExploreResult, []byte) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		j, err := ckpt.OpenWith(path, ckpt.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r(engine.NewFromConfig(cm, engine.Config{Workers: 2, Journal: j}))
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return res, mergedBytes(t, path)
	}
	var tally bindingTally
	for _, kind := range []hardware.Topology{hardware.TopoRing, hardware.TopoMesh, hardware.TopoTorus} {
		space := repricingSpace()
		space.Topology = kind
		computes := space.ComputeConfigs(macs)
		if len(computes) < 3 {
			t.Fatalf("%v: %d compute configurations; the shard needs at least 3", kind, len(computes))
		}
		lo, hi := 1, len(computes)
		for _, c := range []struct {
			name      string
			got, want run
		}{
			{"Explore",
				func(eng *engine.Evaluator) (ExploreResult, error) {
					return Explore(ctx, model, space, macs, area, eng)
				},
				func(eng *engine.Evaluator) (ExploreResult, error) {
					return exploreComputes(ctx, model, space, macs, area, eng, computes, "reference", tally.pricer)
				}},
			{"ExploreRange",
				func(eng *engine.Evaluator) (ExploreResult, error) {
					return ExploreRange(ctx, model, space, macs, area, eng, lo, hi)
				},
				func(eng *engine.Evaluator) (ExploreResult, error) {
					return exploreComputes(ctx, model, space, macs, area, eng, computes[lo:hi], "reference", tally.pricer)
				}},
		} {
			got, gotJournal := journaled(c.got)
			want, wantJournal := journaled(c.want)
			if len(want.Points) == 0 || !want.HasBest {
				t.Fatalf("%v %s: the reference found %d points; the space is too tight to compare", kind, c.name, len(want.Points))
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v %s: result differs from the reference:\n got %+v\nwant %+v", kind, c.name, got, want)
			}
			if string(gotJournal) != string(wantJournal) {
				t.Errorf("%v %s: journal differs from the reference:\n got %s\nwant %s", kind, c.name, gotJournal, wantJournal)
			}
		}
	}
	if tally.ol1Only == 0 || tally.rotateOnly == 0 {
		t.Errorf("the space binds O-L1 alone %d times and the rotating chunk alone %d times; want both", tally.ol1Only, tally.rotateOnly)
	}
}

// TestExploreRepricingFunnel pins explore's re-pricing observability: one
// dse.memory_point observation per priced memory point (the invalid
// A-L2 < A-L1 cells are swept, not priced), and a funnel in which every
// simulated candidate was priced first.
func TestExploreRepricingFunnel(t *testing.T) {
	reg := obs.NewRegistry()
	space := repricingSpace()
	if _, err := Explore(ctx, repeatedModel(), space, 512, 3.0, engine.NewFromConfig(cm, engine.Config{Registry: reg})); err != nil {
		t.Fatal(err)
	}
	cells := 0
	for _, al1 := range space.AL1 {
		for range space.WL1 {
			for _, al2 := range space.AL2 {
				if al2 >= al1 {
					cells++
				}
			}
		}
	}
	snap := reg.Snapshot()
	want := int64(len(space.ComputeConfigs(512)) * cells * len(space.OL1PerLane))
	if got := snap.Phases["dse.memory_point"].Count; got != want {
		t.Errorf("dse.memory_point observed %d times, want one per priced memory point (%d)", got, want)
	}
	priced, simulated := snap.Counters["dse.candidates_priced"], snap.Counters["dse.candidates_simulated"]
	if simulated <= 0 || simulated > priced {
		t.Errorf("re-pricing funnel: %d candidates priced, %d simulated; want 0 < simulated <= priced", priced, simulated)
	}
}
