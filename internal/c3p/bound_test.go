package c3p

import (
	"math/rand"
	"testing"

	"nnbaton/internal/mapping"
)

// TestMinActivationFillsMatchWalks holds MinAL1Fills and MinAL2Fills to the
// walks they fold: at each level, the fewest fills that either temporal
// order's analysis incurs at a capacity. The capacities are the hardware's
// own and one byte below, at and above every critical capacity of either
// order, the A-L1 Cc₀ point included, so a threshold test turned
// non-strict or a dropped critical point shows.
func TestMinActivationFillsMatchWalks(t *testing.T) {
	rng := rand.New(rand.NewSource(20261020))
	layers := stageLayers(rng)
	trials := 96
	if testing.Short() {
		trials = 24
	}
	orders := []mapping.Temporal{mapping.ChannelPriority, mapping.PlanePriority}
	var (
		a                        Analysis
		sc                       Scratch
		checked                  int
		cc0, chanAL1, chanAL2    int // probes whose minimum pays that penalty
		al1Fills, al2Fills       [2]FillAnalysis
		al1Thresh, al2Thresh     []Threshold
		al1Capacity, al2Capacity []int64
	)
	for trial := 0; trial < trials; trial++ {
		l := layers[rng.Intn(len(layers))]
		hw := stageHW(rng)
		if hw.Validate() != nil {
			continue
		}
		for _, tmpl := range stageSplits(hw) {
			m := tmpl
			if !randomTiles(rng, &l, &hw, &m) {
				continue
			}
			// The A-L1 walk depends only on the chiplet order and the A-L2
			// walk only on the package order, so pairing them up covers
			// all four variants.
			al1Thresh, al2Thresh = al1Thresh[:0], al2Thresh[:0]
			for i, o := range orders {
				m.PackageTemporal, m.ChipletTemporal = o, o
				AnalyzeInto(&a, &sc, &l, &hw, &m)
				al1Fills[i], al2Fills[i] = a.AL1, a.AL2
				al1Fills[i].Thresholds = append([]Threshold(nil), a.AL1.Thresholds...)
				al2Fills[i].Thresholds = append([]Threshold(nil), a.AL2.Thresholds...)
				al1Thresh = append(al1Thresh, a.AL1.Thresholds...)
				al2Thresh = append(al2Thresh, a.AL2.Thresholds...)
			}
			s := &a.Shape
			al1Capacity = capacities(al1Capacity[:0], hw.AL1Bytes, al1Thresh)
			al2Capacity = capacities(al2Capacity[:0], hw.AL2Bytes, al2Thresh)
			for _, c := range al1Capacity {
				want := min(al1Fills[0].Fills(c), al1Fills[1].Fills(c))
				got := MinAL1Fills(&l, &hw, m.HOc, m.WOc, int64(s.H2)*int64(s.W2), int64(s.C2), c)
				if got != want {
					t.Fatalf("trial %d %s/%s on %s, A-L1 %d B: MinAL1Fills %d, fewest walk fills %d for %v",
						trial, l.Model, l.Name, hw.Tuple(), c, got, want, m)
				}
				checked++
				if c < mapping.CoreAL1Need(&l, &hw, m.HOc, m.WOc) && l.R*l.S > 1 {
					cc0++
				}
				if s.C2 > 1 && c < l.TileInputBytes(m.HOc, m.WOc, l.CI) {
					chanAL1++
				}
			}
			for _, c := range al2Capacity {
				want := min(al2Fills[0].Fills(c), al2Fills[1].Fills(c))
				got := MinAL2Fills(&l, m.HOt, m.WOt, int64(s.H1)*int64(s.W1), int64(s.C1), c)
				if got != want {
					t.Fatalf("trial %d %s/%s on %s, A-L2 %d B: MinAL2Fills %d, fewest walk fills %d for %v",
						trial, l.Model, l.Name, hw.Tuple(), c, got, want, m)
				}
				checked++
				if s.C1 > 1 && c < l.TileInputBytes(m.HOt, m.WOt, l.CI) {
					chanAL2++
				}
			}
		}
	}
	t.Logf("%d comparisons; penalized minima: A-L1 Cc0 %d, A-L1 channel %d, A-L2 channel %d",
		checked, cc0, chanAL1, chanAL2)
	if cc0 == 0 || chanAL1 == 0 || chanAL2 == 0 {
		t.Fatalf("a penalty never applied to the minimum: A-L1 Cc0 %d, A-L1 channel %d, A-L2 channel %d",
			cc0, chanAL1, chanAL2)
	}
}

// capacities appends to dst the buffer's own size and, for every critical
// capacity, the positive sizes one byte below, at and above it.
func capacities(dst []int64, own int, ths []Threshold) []int64 {
	dst = append(dst, int64(own))
	for _, th := range ths {
		for d := int64(-1); d <= 1; d++ {
			if c := th.Capacity + d; c > 0 {
				dst = append(dst, c)
			}
		}
	}
	return dst
}
