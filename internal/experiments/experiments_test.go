package experiments

import (
	"strings"
	"testing"

	"nnbaton"
)

func TestAllRegistry(t *testing.T) {
	all := All(nnbaton.New(), nnbaton.TopoRing)
	want := []string{"table1", "table2", "fig7", "fig8", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"ext-fusion", "ext-cost", "ext-layout", "ext-mobilenet", "ext-degradation", "ext-topology", "ext-serving"}
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %q, want %q", i, e.ID, want[i])
		}
		if e.Desc == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
}

// The lightweight drivers run end-to-end and produce their headline tables.
func TestLightweightExperiments(t *testing.T) {
	checks := map[string][]string{
		"table1":     {"DRAM access", "8-bit MAC", "364.58x"},
		"table2":     {"Vector-MAC", "compute allocations"},
		"fig7":       {"ResNet-50 conv1", "1:4 extra"},
		"fig8":       {"2x2", "1x4"},
		"fig10":      {"SRAM library", "RF library", "slope/KB"},
		"ext-cost":   {"Murphy", "400mm2"},
		"ext-layout": {"row-interleaved", "region-aligned"},
	}
	for _, e := range All(nnbaton.New(), nnbaton.TopoRing) {
		wants, ok := checks[e.ID]
		if !ok {
			continue
		}
		var sb strings.Builder
		if err := e.Run(&sb, true); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		out := sb.String()
		for _, w := range wants {
			if !strings.Contains(out, w) {
				t.Errorf("%s output missing %q:\n%s", e.ID, w, out)
			}
		}
	}
}

// fig11 and fig12 are the heaviest drivers that still finish in seconds in
// quick mode; verify their table structure.
func TestMappingExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("mapping search in -short mode")
	}
	for _, id := range []string{"fig11", "fig12"} {
		for _, e := range All(nnbaton.New(), nnbaton.TopoRing) {
			if e.ID != id {
				continue
			}
			var sb strings.Builder
			if err := e.Run(&sb, true); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			out := sb.String()
			for _, role := range []string{"activation-intensive", "weight-intensive", "large-kernel", "point-wise", "common"} {
				if !strings.Contains(out, role) {
					t.Errorf("%s output missing layer role %q", id, role)
				}
			}
			if id == "fig12" && !strings.Contains(out, "Simba") {
				t.Errorf("fig12 output missing baseline column")
			}
		}
	}
}

func TestFig7SquareBeatsStripe(t *testing.T) {
	var sb strings.Builder
	for _, e := range All(nnbaton.New(), nnbaton.TopoRing) {
		if e.ID == "fig7" {
			if err := e.Run(&sb, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Each row lists the 1:1 percentage before the 1:4 percentage; spot-check
	// that the table carries both columns.
	if c := strings.Count(sb.String(), "%"); c < 12 {
		t.Errorf("fig7 table has %d percentage cells, want >= 12", c)
	}
}

// The heavyweight paper drivers run end-to-end in quick mode.
func TestHeavyExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy drivers in -short mode")
	}
	checks := map[string][]string{
		"fig13":         {"VGG-16", "saving"},
		"fig14":         {"EDP", "2048-MAC"},
		"ext-fusion":    {"fused edges", "DarkNet-19"},
		"ext-mobilenet": {"depthwise", "dense"},
		"ext-serving":   {"healthy", "cores1@0", "req/s", "p99"},
	}
	for _, e := range All(nnbaton.New(), nnbaton.TopoRing) {
		wants, ok := checks[e.ID]
		if !ok {
			continue
		}
		var sb strings.Builder
		if err := e.Run(&sb, true); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		for _, w := range wants {
			if !strings.Contains(sb.String(), w) {
				t.Errorf("%s output missing %q", e.ID, w)
			}
		}
	}
}
