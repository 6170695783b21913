package engine

import (
	"strings"
	"testing"

	"nnbaton/internal/hardware"
	"nnbaton/internal/mapper"
)

// TestCacheKeyTopologySeparation extends the keying table: the same
// compute/memory tuple on a ring, mesh and torus must occupy distinct cache
// entries (HWKey embeds hardware.Config, so the Topology field separates
// them automatically), and the ring's sweep-point journal key must stay
// textually identical to the pre-topology format while mesh/torus get
// distinct keys.
func TestCacheKeyTopologySeparation(t *testing.T) {
	l := tinyLayer("conv")
	base := hardware.Config{Chiplets: 4, Cores: 4, Lanes: 4, Vector: 8}.
		WithProportionalMemory(hardware.DefaultProportion())
	kinds := []hardware.Topology{hardware.TopoRing, hardware.TopoMesh, hardware.TopoTorus}

	keys := make(map[searchKey]hardware.Topology)
	sweepKeys := make(map[string]hardware.Topology)
	cfg := mapper.Config{}.WithDefaults()
	for _, kind := range kinds {
		hw := base
		hw.Topology = kind
		key := searchKey{shape: ShapeOf(l), hw: HWOf(hw), cfg: cacheCfg(cfg)}
		if prev, dup := keys[key]; dup {
			t.Errorf("topologies %v and %v collide on one search cache key", prev, kind)
		}
		keys[key] = kind
		sk := sweepPointKey("m", cfg, hw)
		if prev, dup := sweepKeys[sk]; dup {
			t.Errorf("topologies %v and %v collide on sweep key %q", prev, kind, sk)
		}
		sweepKeys[sk] = kind
		// The ring key must not mention any topology — historical checkpoint
		// journals predate the axis and must keep replaying.
		if kind == hardware.TopoRing && strings.Contains(sk, "@") {
			t.Errorf("ring sweep key %q grew a topology marker; old journals would orphan", sk)
		}
		if kind != hardware.TopoRing && !strings.Contains(sk, "@"+kind.String()) {
			t.Errorf("sweep key %q does not name its topology %v", sk, kind)
		}
	}

	// Live cache behavior: one real search per fabric, then hits.
	e := New(cm)
	for _, kind := range kinds {
		hw := base
		hw.Topology = kind
		if _, err := e.EvalLayer(bg, l, hw, mapper.Config{}); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
	if s := e.Stats(); s.Searches != int64(len(kinds)) || s.Hits != 0 {
		t.Errorf("stats %+v: each fabric must run exactly one search", s)
	}
	meshHW := base
	meshHW.Topology = hardware.TopoMesh
	if _, err := e.EvalLayer(bg, l, meshHW, mapper.Config{}); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Hits != 1 {
		t.Errorf("re-evaluating the mesh must hit its own entry, stats %+v", s)
	}
}

// TestEvalTopologyCostOrdering is the physical sanity check behind the DSE
// axis: on the discriminating 8-chiplet package (2×4 grid) the mesh's
// rotation detours move strictly more D2D bytes than the ring's, so the
// optimal mapping can never be cheaper in energy; the torus' wrap links can
// only narrow that gap.
func TestEvalTopologyCostOrdering(t *testing.T) {
	l := tinyLayer("conv")
	hw := hardware.Config{Chiplets: 8, Cores: 2, Lanes: 4, Vector: 8}.
		WithProportionalMemory(hardware.DefaultProportion())
	e := New(cm)
	energyOf := func(kind hardware.Topology) float64 {
		t.Helper()
		h := hw
		h.Topology = kind
		opt, err := e.EvalLayer(bg, l, h, mapper.Config{})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		return opt.Energy.Total()
	}
	ring := energyOf(hardware.TopoRing)
	mesh := energyOf(hardware.TopoMesh)
	torus := energyOf(hardware.TopoTorus)
	if mesh < ring {
		t.Errorf("mesh optimum %.1f pJ beats ring %.1f pJ despite strictly longer rotation", mesh, ring)
	}
	if torus > mesh {
		t.Errorf("torus optimum %.1f pJ exceeds mesh %.1f pJ despite wrap shortcuts", torus, mesh)
	}
}
