package mapping

import (
	"math/rand"
	"testing"

	"nnbaton/internal/hardware"
	"nnbaton/internal/workload"
)

// randomMapping draws from a distribution wide enough to hit every reject
// branch of Validate as well as plenty of accepted mappings.
func randomMapping(rng *rand.Rand, l workload.Layer, hw hardware.Config) Mapping {
	spatials := []Spatial{SpatialC, SpatialP, SpatialH}
	pat := func(n int) Pattern {
		ps := GridPatterns(nil, n)
		if len(ps) == 0 || rng.Intn(8) == 0 {
			return Pattern{Rows: rng.Intn(4) + 1, Cols: rng.Intn(4) + 1}
		}
		return ps[rng.Intn(len(ps))]
	}
	m := Mapping{
		PackageSpatial:  spatials[rng.Intn(2)],
		PackagePattern:  pat(hw.Chiplets),
		PackageTemporal: Temporal(rng.Intn(2)),
		ChipletSpatial:  spatials[rng.Intn(3)],
		ChipletCSplit:   []int{1, 2, 4, hw.Cores / 2, hw.Cores, hw.Cores * 2}[rng.Intn(6)],
		ChipletPattern:  pat(hw.Cores),
		ChipletTemporal: Temporal(rng.Intn(2)),
		COt:             rng.Intn(l.CO+8) + 1,
		HOt:             rng.Intn(l.HO+4) + 1,
		WOt:             rng.Intn(l.WO+4) + 1,
		HOc:             rng.Intn(12) + 1,
		WOc:             rng.Intn(12) + 1,
		Rotate:          rng.Intn(2) == 0,
	}
	// Bias half the draws toward satisfiable structural constraints so the
	// accept paths get exercised too, leaving the rest fully random.
	if rng.Intn(2) == 0 {
		switch m.ChipletSpatial {
		case SpatialC:
			m.ChipletCSplit, m.ChipletPattern = hw.Cores, Pattern{Rows: 1, Cols: 1}
		case SpatialP:
			m.ChipletCSplit = 1
		case SpatialH:
			// A proper divisor of Cores, over a grid of the cores left.
			var splits []int
			for d := 2; d < hw.Cores; d++ {
				if hw.Cores%d == 0 {
					splits = append(splits, d)
				}
			}
			if len(splits) > 0 {
				m.ChipletCSplit = splits[rng.Intn(len(splits))]
				ps := GridPatterns(nil, hw.Cores/m.ChipletCSplit)
				m.ChipletPattern = ps[rng.Intn(len(ps))]
			}
		}
		m.COt = max(m.COt, m.ChipletCSplit)
		m.HOt = max(m.HOt, m.ChipletPattern.Rows)
		m.WOt = max(m.WOt, m.ChipletPattern.Cols)
		m.HOc = rng.Intn(5) + 1
		m.WOc = rng.Intn(5) + 1
	}
	return m
}

// feasibleDraws calls visit on every (layer, hardware, random mapping)
// input of the Feasible lockstep tests, in a fixed order.
func feasibleDraws(visit func(l workload.Layer, hw hardware.Config, m Mapping)) {
	rng := rand.New(rand.NewSource(42))
	layers := []workload.Layer{
		{Model: "t", Name: "conv", HO: 56, WO: 56, CO: 64, CI: 64, R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{Model: "t", Name: "wide", HO: 14, WO: 14, CO: 512, CI: 256, R: 1, S: 1, StrideH: 1, StrideW: 1},
		{Model: "t", Name: "dw", HO: 28, WO: 28, CO: 96, CI: 96, R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 96},
		{Model: "t", Name: "tiny", HO: 7, WO: 7, CO: 8, CI: 16, R: 1, S: 1, StrideH: 1, StrideW: 1},
	}
	hws := []hardware.Config{hardware.CaseStudy()}
	single := hardware.CaseStudy()
	single.Chiplets = 1
	hws = append(hws, single)
	small := hardware.CaseStudy()
	small.AL1Bytes = 200
	small.WL1Bytes = 512
	hws = append(hws, small)

	for _, l := range layers {
		for _, hw := range hws {
			for i := 0; i < 4000; i++ {
				visit(l, hw, randomMapping(rng, l, hw))
			}
		}
	}
}

// TestFeasibleMatchesValidate pins the lockstep contract of the allocation-
// free fast path: for valid layers and hardware, Feasible must accept exactly
// the mappings Validate accepts.
func TestFeasibleMatchesValidate(t *testing.T) {
	accepted, hybrid := 0, 0
	feasibleDraws(func(l workload.Layer, hw hardware.Config, m Mapping) {
		err := m.Validate(l, hw)
		if got := m.Feasible(l, hw); got != (err == nil) {
			t.Fatalf("Feasible=%v but Validate err=%v for %+v on %s/%s @ %s",
				got, err, m, l.Model, l.Name, hw.Tuple())
		}
		if err == nil {
			accepted++
			if m.ChipletSpatial == SpatialH {
				hybrid++
			}
		}
	})
	if accepted < 100 {
		t.Fatalf("only %d of the random mappings were valid; distribution too narrow", accepted)
	}
	if hybrid < 200 {
		t.Fatalf("only %d of the valid mappings split chiplets H-type; the hybrid accept path is barely reached", hybrid)
	}
}

// TestFeasibleShapeMatchesShape holds the search's shape-returning check to
// Validate plus Shape on every input TestFeasibleMatchesValidate draws: it
// accepts exactly the valid mappings and returns each one's Shape.
func TestFeasibleShapeMatchesShape(t *testing.T) {
	feasibleDraws(func(l workload.Layer, hw hardware.Config, m Mapping) {
		var sh Shape
		ok := m.FeasibleShape(&l, &hw, &sh)
		if valid := m.Validate(l, hw) == nil; ok != valid {
			t.Fatalf("FeasibleShape ok=%v but valid=%v for %+v on %s @ %s", ok, valid, m, l.Name, hw.Tuple())
		}
		if !ok {
			return
		}
		if want := m.Shape(&l, &hw); sh != want {
			t.Fatalf("FeasibleShape shape %+v, Shape %+v for %+v on %s @ %s", sh, want, m, l.Name, hw.Tuple())
		}
	})
}

// TestCompareTotalOrder spot-checks Compare's contract: reflexive zero,
// antisymmetric, and nonzero for distinct mappings.
func TestCompareTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := workload.Layer{Model: "t", Name: "c", HO: 28, WO: 28, CO: 128, CI: 64,
		R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	hw := hardware.CaseStudy()
	ms := make([]Mapping, 64)
	for i := range ms {
		ms[i] = randomMapping(rng, l, hw)
	}
	for i := range ms {
		if Compare(ms[i], ms[i]) != 0 {
			t.Fatalf("Compare(m, m) != 0 for %+v", ms[i])
		}
		for j := range ms {
			c, r := Compare(ms[i], ms[j]), Compare(ms[j], ms[i])
			if c != -r {
				t.Fatalf("Compare not antisymmetric: %d vs %d", c, r)
			}
			if i != j && ms[i] != ms[j] && c == 0 {
				t.Fatalf("distinct mappings compare equal:\n%+v\n%+v", ms[i], ms[j])
			}
		}
	}
}
