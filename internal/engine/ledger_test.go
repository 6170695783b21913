package engine_test

import (
	"context"
	"testing"

	"nnbaton/internal/dse"
	"nnbaton/internal/engine"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapper"
	"nnbaton/internal/workload"
)

// TestSearchFunnelLedger pins the exact serial search funnel of three
// flows: the counters an engine with one worker, running one-worker layer
// searches, prints on its -stats line. A serial search is deterministic, so
// any change to the scan's group set, its bounds or their order moves some
// count here, and a change meant to keep the search's behaviour must leave
// every line as it is. The flows are README's GOMAXPROCS=1 `nnbaton -model
// resnet50 -stats` run (the case-study hardware), one Fig 14 point (a
// 2048-MAC compute allocation with proportional memory) and one Table II
// point with every memory axis at its minimum, on the 2D mesh.
func TestSearchFunnelLedger(t *testing.T) {
	space := dse.TableII()
	fig14 := hardware.Config{Chiplets: 4, Cores: 4, Lanes: 8, Vector: 16}.
		WithProportionalMemory(hardware.DefaultProportion())
	starved := hardware.Config{Chiplets: 4, Cores: 8, Lanes: 8, Vector: 8, Topology: hardware.TopoMesh,
		OL1Bytes: space.OL1PerLane[0] * 8, AL1Bytes: space.AL1[0], WL1Bytes: space.WL1[0],
		AL2Bytes: space.AL2[0], OL2Bytes: space.AL2[0] / 2}
	cases := []struct {
		name string
		m    workload.Model
		hw   hardware.Config
		want string
	}{
		{"case-study", workload.ResNet50(224), hardware.CaseStudy(),
			"engine: 54 lookups, 21 searches, 33 hits, 0 coalesced (2.6x dedup); search: 875 candidates, 0 bound-pruned, 500 stage-pruned, 375 evaluated (57.1% pruned), 465 cells, 5815 groups built, 1751 groups expanded"},
		{"fig14", workload.ResNet50(224), fig14,
			"engine: 54 lookups, 21 searches, 33 hits, 0 coalesced (2.6x dedup); search: 953 candidates, 0 bound-pruned, 661 stage-pruned, 292 evaluated (69.4% pruned), 430 cells, 4236 groups built, 1470 groups expanded"},
		{"tableII-min-mesh", workload.ResNet50(224), starved,
			"engine: 54 lookups, 21 searches, 33 hits, 0 coalesced (2.6x dedup); search: 20378 candidates, 0 bound-pruned, 20138 stage-pruned, 240 evaluated (98.8% pruned), 7448 cells, 4525 groups built, 1490 groups expanded"},
	}
	cm := hardware.MustCostModel()
	for _, c := range cases {
		e := engine.NewFromConfig(cm, engine.Config{Workers: 1})
		if _, err := e.EvalModel(context.Background(), c.m, c.hw, mapper.Config{Workers: 1}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := e.Stats().String(); got != c.want {
			t.Errorf("%s on %s: funnel\n got %s\nwant %s", c.name, c.hw.Tuple(), got, c.want)
		}
	}
}
