package dse

import (
	"context"
	"strings"
	"testing"

	"nnbaton/internal/engine"
	"nnbaton/internal/fab"
	"nnbaton/internal/hardware"
	"nnbaton/internal/workload"
)

var cm = hardware.MustCostModel()

// newEng builds a fresh evaluation engine per test so cache statistics and
// results stay isolated.
func newEng() *engine.Evaluator { return engine.New(cm) }

var ctx = context.Background()

// tinySpace keeps unit tests fast; the full Table II space is exercised by
// the experiment benchmarks.
func tinySpace() Space {
	return Space{
		Vector:     []int{8},
		Lanes:      []int{8},
		Cores:      []int{2, 4, 8},
		Chiplets:   []int{1, 2, 4},
		OL1PerLane: []int{96, 144},
		AL1:        []int{1024, 4096},
		WL1:        []int{8192, 32768},
		AL2:        []int{32768, 65536},
	}
}

// tinyModel is a two-layer synthetic network that maps quickly.
func tinyModel() workload.Model {
	return workload.Model{Name: "tiny", Resolution: 32, Layers: []workload.Layer{
		{Model: "tiny", Name: "conv1", HO: 32, WO: 32, CO: 32, CI: 16,
			R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{Model: "tiny", Name: "conv2", HO: 16, WO: 16, CO: 64, CI: 32,
			R: 3, S: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
	}}
}

func TestTableIISpace(t *testing.T) {
	s := TableII()
	if s.MemoryPoints() != 3*8*9*6 {
		t.Errorf("memory points = %d", s.MemoryPoints())
	}
	// 2048-MAC compute allocations in the power-of-two Table II space.
	configs := s.ComputeConfigs(2048)
	if len(configs) != 32 {
		t.Errorf("2048-MAC compute allocations = %d, want 32", len(configs))
	}
	for _, c := range configs {
		if c.TotalMACs() != 2048 {
			t.Errorf("config %s has %d MACs", c.Tuple(), c.TotalMACs())
		}
	}
	// Sorted by chiplets, then cores.
	for i := 1; i < len(configs); i++ {
		if configs[i].Chiplets < configs[i-1].Chiplets {
			t.Error("configs not sorted by chiplet count")
		}
	}
	if got := s.ComputeConfigs(7); len(got) != 0 {
		t.Errorf("impossible MAC budget matched %d configs", len(got))
	}
}

func TestGranularityStudy(t *testing.T) {
	res, err := Granularity(ctx, tinyModel(), tinySpace(), 512, 2.0, hardware.DefaultProportion(), newEng())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no points")
	}
	// All three chiplet counts appear.
	counts := map[int]bool{}
	for _, p := range res.Points {
		counts[p.HW.Chiplets] = true
		if p.ChipletAreaMM2 <= 0 {
			t.Errorf("point %s has no area", p.HW.Tuple())
		}
	}
	for _, np := range []int{1, 2, 4} {
		if !counts[np] {
			t.Errorf("missing %d-chiplet configs", np)
		}
	}
	best := res.BestPerChipletCount(false)
	if len(best) == 0 {
		t.Fatal("no per-chiplet best")
	}
	// Without an area constraint, fewer chiplets should not lose to more
	// chiplets (on-chip beats inter-chip communication, Fig 14).
	if b1, ok1 := best[1]; ok1 {
		if b4, ok4 := best[4]; ok4 && b1.Energy.Total() > b4.Energy.Total()*1.05 {
			t.Errorf("1-chiplet best %.0f should not exceed 4-chiplet %.0f",
				b1.Energy.Total(), b4.Energy.Total())
		}
	}
	if _, ok := res.BestEDP(); !ok {
		t.Error("no EDP-best under the 2mm² constraint")
	}
}

func TestGranularityErrors(t *testing.T) {
	if _, err := Granularity(ctx, tinyModel(), tinySpace(), 7, 2.0, hardware.DefaultProportion(), newEng()); err == nil {
		t.Error("expected error for impossible MAC budget")
	}
}

func TestExplore(t *testing.T) {
	res, err := Explore(ctx, tinyModel(), tinySpace(), 512, 3.0, newEng())
	if err != nil {
		t.Fatal(err)
	}
	if res.Swept == 0 || len(res.Points) == 0 {
		t.Fatalf("swept=%d valid=%d", res.Swept, len(res.Points))
	}
	if len(res.Points) > res.Swept {
		t.Error("more valid points than swept")
	}
	if !res.HasBest {
		t.Fatal("no best point under area constraint")
	}
	if !res.Best.MeetsArea || res.Best.MappedLayers != len(tinyModel().Layers) {
		t.Errorf("best point malformed: %+v", res.Best)
	}
	// Every valid point maps every layer.
	for _, p := range res.Points {
		if p.MappedLayers != len(tinyModel().Layers) {
			t.Errorf("valid point %s mapped %d layers", p.HW.Tuple(), p.MappedLayers)
		}
	}
	// Pareto front is non-empty, no larger than the point set, and
	// internally non-dominated.
	front := res.ParetoFront()
	if len(front) == 0 || len(front) > len(res.Points) {
		t.Fatalf("front size %d of %d", len(front), len(res.Points))
	}
	for i, p := range front {
		for j, q := range front {
			if i == j {
				continue
			}
			if q.ChipletAreaMM2 < p.ChipletAreaMM2 && q.EDP() < p.EDP() {
				t.Errorf("front point %s dominated by %s", p.HW, q.HW)
			}
		}
	}
	// The best EDP point must be on or behind the front's EDP range.
	minEDP := front[0].EDP()
	for _, p := range front {
		if p.EDP() < minEDP {
			minEDP = p.EDP()
		}
	}
	if res.Best.EDP() < minEDP {
		t.Error("best point beats the Pareto front, impossible")
	}
}

func TestExploreInvalidPruning(t *testing.T) {
	// A space where every A-L2 option is smaller than every A-L1 option
	// yields zero valid points but still counts sweeps.
	s := tinySpace()
	s.AL1 = []int{128 * 1024}
	s.AL2 = []int{32 * 1024}
	res, err := Explore(ctx, tinyModel(), s, 512, 3.0, newEng())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 0 || res.Swept == 0 {
		t.Errorf("expected all points pruned: valid=%d swept=%d", len(res.Points), res.Swept)
	}
}

// unmappableModel has a single layer no multi-chiplet configuration can
// map (a 1x1 output plane with only 2 output channels), so every sweep
// point fails and must record why.
func unmappableModel() workload.Model {
	return workload.Model{Name: "unmappable", Resolution: 8, Layers: []workload.Layer{
		{Model: "unmappable", Name: "bad", HO: 1, WO: 1, CO: 2, CI: 8,
			R: 1, S: 1, StrideH: 1, StrideW: 1},
	}}
}

func TestGranularityRecordsFailureReason(t *testing.T) {
	res, err := Granularity(ctx, unmappableModel(), tinySpace(), 512, 2.0, hardware.DefaultProportion(), newEng())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no points")
	}
	for _, p := range res.Points {
		if p.MappedLayers != 0 {
			t.Fatalf("unmappable model mapped %d layers on %s", p.MappedLayers, p.HW.Tuple())
		}
		if p.Err == "" {
			t.Errorf("point %s has zero layers but no failure reason", p.HW.Tuple())
		}
		if !strings.Contains(p.String(), p.Err) {
			t.Errorf("Point.String() %q does not surface the failure reason %q", p.String(), p.Err)
		}
	}
}

func TestGranularityCancellation(t *testing.T) {
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Granularity(cctx, tinyModel(), tinySpace(), 512, 2.0, hardware.DefaultProportion(), newEng()); err == nil {
		t.Error("cancelled granularity study returned no error")
	}
	if _, err := Explore(cctx, tinyModel(), tinySpace(), 512, 3.0, newEng()); err == nil {
		t.Error("cancelled explore returned no error")
	}
}

func TestPointString(t *testing.T) {
	p := Point{HW: hardware.CaseStudy(), ChipletAreaMM2: 1.5, MeetsArea: true}
	if p.String() == "" {
		t.Error("empty point string")
	}
}

func TestWithCosts(t *testing.T) {
	res, err := Granularity(ctx, tinyModel(), tinySpace(), 512, 0, hardware.DefaultProportion(), newEng())
	if err != nil {
		t.Fatal(err)
	}
	costed, err := res.WithCosts(fab.TSMC16Like())
	if err != nil {
		t.Fatal(err)
	}
	if len(costed) == 0 {
		t.Fatal("no costed points")
	}
	bad := fab.TSMC16Like()
	bad.WaferDiameterMM = -1
	if _, err := res.WithCosts(bad); err == nil {
		t.Error("expected invalid-process error")
	}
	for _, cp := range costed {
		if cp.Cost.TotalUSD <= 0 || cp.Cost.Chiplets != cp.HW.Chiplets {
			t.Errorf("bad cost record: %+v", cp.Cost)
		}
	}
}

// TestGranularityTopologyAxis drives the new DSE axis end-to-end: the same
// tiny space swept under mesh and torus fabrics must evaluate every point
// (the generic graph engine handles each chiplet count), stamp the topology
// into each point's hardware, and render it in the Fig 14 tuple.
func TestGranularityTopologyAxis(t *testing.T) {
	for _, kind := range []hardware.Topology{hardware.TopoMesh, hardware.TopoTorus} {
		s := tinySpace()
		s.Topology = kind
		res, err := Granularity(ctx, tinyModel(), s, 512, 2.0, hardware.DefaultProportion(), newEng())
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if len(res.Points) == 0 {
			t.Fatalf("%v: empty study", kind)
		}
		for _, p := range res.Points {
			if p.HW.Topology != kind {
				t.Errorf("%v: point %s lost its topology", kind, p.HW.Tuple())
			}
			if p.MappedLayers == 0 {
				t.Errorf("%v: point %s failed to map: %s", kind, p.HW.Tuple(), p.Err)
			}
			if p.HW.Chiplets > 1 && !strings.HasSuffix(p.HW.Tuple(), "@"+kind.String()) &&
				!strings.Contains(p.HW.Tuple(), "@"+kind.String()) {
				t.Errorf("%v: tuple %q does not name the fabric", kind, p.HW.Tuple())
			}
		}
		if _, ok := res.BestEDP(); !ok {
			t.Errorf("%v: no feasible recommendation", kind)
		}
	}
}

// TestGranularityMeshCostsAtLeastRing pins the cross-fabric ordering at the
// study level: aggregated over the whole tiny model, no mesh point can beat
// its ring twin on energy (the mesh rotation moves a superset of the ring's
// physical D2D bytes).
func TestGranularityMeshCostsAtLeastRing(t *testing.T) {
	ringRes, err := Granularity(ctx, tinyModel(), tinySpace(), 512, 2.0, hardware.DefaultProportion(), newEng())
	if err != nil {
		t.Fatal(err)
	}
	s := tinySpace()
	s.Topology = hardware.TopoMesh
	meshRes, err := Granularity(ctx, tinyModel(), s, 512, 2.0, hardware.DefaultProportion(), newEng())
	if err != nil {
		t.Fatal(err)
	}
	ringBy := map[string]Point{}
	for _, p := range ringRes.Points {
		hw := p.HW
		hw.Topology = hardware.TopoRing
		ringBy[hw.Tuple()] = p
	}
	for _, mp := range meshRes.Points {
		hw := mp.HW
		hw.Topology = hardware.TopoRing
		rp, ok := ringBy[hw.Tuple()]
		if !ok || mp.MappedLayers == 0 || rp.MappedLayers == 0 {
			continue
		}
		if mp.Energy.Total() < rp.Energy.Total() {
			t.Errorf("%s: mesh energy %.1f beats ring %.1f", hw.Tuple(),
				mp.Energy.Total(), rp.Energy.Total())
		}
	}
}
