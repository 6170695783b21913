// Package functional is a bit-exact execution harness for mapped layers: it
// runs a convolution through the mapping's full spatial/temporal
// decomposition — chiplet regions, package-temporal tiles, core subregions
// and core-temporal tiles — and verifies against a direct reference
// implementation that the orchestration computes every output element
// exactly once. It validates the *semantics* of the mapping hierarchy that
// the analytical C³P engine only costs.
package functional

import (
	"fmt"

	"nnbaton/internal/hardware"
	"nnbaton/internal/mapping"
	"nnbaton/internal/workload"
)

// Input is an input activation tensor indexed [ci][ih][iw], already padded
// (dimensions IH()×IW() of the layer).
type Input [][][]int8

// Weights is a weight tensor indexed [co][ciInGroup][r][s].
type Weights [][][][]int8

// Output is an output tensor indexed [co][ho][wo] with 32-bit accumulators.
type Output [][][]int32

// NewInput allocates a zeroed input tensor for a layer.
func NewInput(l workload.Layer) Input {
	t := make(Input, l.CI)
	for c := range t {
		t[c] = make([][]int8, l.IH())
		for y := range t[c] {
			t[c][y] = make([]int8, l.IW())
		}
	}
	return t
}

// NewWeights allocates a zeroed weight tensor for a layer.
func NewWeights(l workload.Layer) Weights {
	w := make(Weights, l.CO)
	for co := range w {
		w[co] = make([][][]int8, l.CIPerGroup())
		for ci := range w[co] {
			w[co][ci] = make([][]int8, l.R)
			for r := range w[co][ci] {
				w[co][ci][r] = make([]int8, l.S)
			}
		}
	}
	return w
}

func newOutput(l workload.Layer) Output {
	o := make(Output, l.CO)
	for c := range o {
		o[c] = make([][]int32, l.HO)
		for y := range o[c] {
			o[c][y] = make([]int32, l.WO)
		}
	}
	return o
}

// Fill populates tensors with a deterministic pattern derived from seed.
func Fill(l workload.Layer, seed int64) (Input, Weights) {
	in, w := NewInput(l), NewWeights(l)
	x := uint64(seed)*2654435761 + 12345
	next := func() int8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int8(x % 17) // small values keep int32 accumulators safe
	}
	for c := range in {
		for y := range in[c] {
			for z := range in[c][y] {
				in[c][y][z] = next()
			}
		}
	}
	for co := range w {
		for ci := range w[co] {
			for r := range w[co][ci] {
				for s := range w[co][ci][r] {
					w[co][ci][r][s] = next()
				}
			}
		}
	}
	return in, w
}

// computeRange accumulates the convolution for the output box
// [co0,co1)×[ho0,ho1)×[wo0,wo1) into out.
func computeRange(l workload.Layer, in Input, w Weights, out Output, co0, co1, ho0, ho1, wo0, wo1 int) {
	cig := l.CIPerGroup()
	for co := co0; co < co1; co++ {
		group := co / l.COPerGroup()
		ciBase := group * cig
		for ho := ho0; ho < ho1; ho++ {
			for wo := wo0; wo < wo1; wo++ {
				var acc int32
				for ci := 0; ci < cig; ci++ {
					for r := 0; r < l.R; r++ {
						for s := 0; s < l.S; s++ {
							iv := in[ciBase+ci][ho*l.StrideH+r][wo*l.StrideW+s]
							acc += int32(iv) * int32(w[co][ci][r][s])
						}
					}
				}
				out[co][ho][wo] += acc
			}
		}
	}
}

// Reference computes the whole layer directly.
func Reference(l workload.Layer, in Input, w Weights) Output {
	out := newOutput(l)
	computeRange(l, in, w, out, 0, l.CO, 0, l.HO, 0, l.WO)
	return out
}

// ExecuteMapped runs the layer through the mapping hierarchy, walked by
// mapping's tile iterator: chiplets get balanced spatial regions,
// package-temporal steps deliver HOt×WOt×COt tiles in PackageTemporal
// order, cores split each tile per the chiplet spatial primitive, and
// chiplet-temporal steps deliver HOc×WOc×Lanes core workloads in
// ChipletTemporal order. Each visited output element is counted; the
// function fails if any element is computed zero times or more than once.
func ExecuteMapped(l workload.Layer, hw hardware.Config, m mapping.Mapping, in Input, w Weights) (Output, error) {
	if err := m.Validate(l, hw); err != nil {
		return nil, err
	}
	out := newOutput(l)
	visits := make([]uint8, l.CO*l.HO*l.WO)
	visit := func(b mapping.Tile) error {
		for co := b.CO0; co < b.CO1; co++ {
			for ho := b.HO0; ho < b.HO1; ho++ {
				for wo := b.WO0; wo < b.WO1; wo++ {
					idx := (co*l.HO+ho)*l.WO + wo
					if visits[idx] != 0 {
						return fmt.Errorf("functional: output (%d,%d,%d) computed twice", co, ho, wo)
					}
					visits[idx] = 1
				}
			}
		}
		computeRange(l, in, w, out, b.CO0, b.CO1, b.HO0, b.HO1, b.WO0, b.WO1)
		return nil
	}
	cores := func(t mapping.Tile) error {
		for core := 0; core < hw.Cores; core++ {
			if err := m.CoreTiles(&hw, m.CoreRegion(t.Box, core), visit); err != nil {
				return err
			}
		}
		return nil
	}
	for chip := 0; chip < hw.Chiplets; chip++ {
		if err := m.PackageTiles(m.ChipletRegion(&l, &hw, chip), cores); err != nil {
			return nil, err
		}
	}
	for idx, v := range visits {
		if v == 0 {
			co := idx / (l.HO * l.WO)
			rest := idx % (l.HO * l.WO)
			return nil, fmt.Errorf("functional: output (%d,%d,%d) never computed",
				co, rest/l.WO, rest%l.WO)
		}
	}
	return out, nil
}

// Equal compares two outputs element-wise.
func Equal(a, b Output) error {
	if len(a) != len(b) {
		return fmt.Errorf("functional: channel counts differ: %d vs %d", len(a), len(b))
	}
	for co := range a {
		for ho := range a[co] {
			for wo := range a[co][ho] {
				if a[co][ho][wo] != b[co][ho][wo] {
					return fmt.Errorf("functional: mismatch at (%d,%d,%d): %d vs %d",
						co, ho, wo, a[co][ho][wo], b[co][ho][wo])
				}
			}
		}
	}
	return nil
}
