package mapping

import (
	"nnbaton/internal/hardware"
	"nnbaton/internal/workload"
)

// Share returns the half-open interval [lo, hi) of part idx when total
// elements split into n balanced parts: the first total%n parts take one
// extra element. n is clamped to total, so every part up to the last is
// non-empty; a part past the last gets the empty interval [total, total).
func Share(total, n, idx int) (lo, hi int) {
	n = min(n, total)
	if idx >= n {
		return total, total
	}
	base, rem := total/n, total%n
	lo = idx*base + min(idx, rem)
	hi = lo + base
	if idx < rem {
		hi++
	}
	return lo, hi
}

// Box is a half-open output region [CO0,CO1)×[HO0,HO1)×[WO0,WO1).
type Box struct{ CO0, CO1, HO0, HO1, WO0, WO1 int }

// CO returns the box's output-channel extent.
func (b Box) CO() int { return b.CO1 - b.CO0 }

// HO returns the box's output-row extent.
func (b Box) HO() int { return b.HO1 - b.HO0 }

// WO returns the box's output-column extent.
func (b Box) WO() int { return b.WO1 - b.WO0 }

// Tile is one temporal step: the output box it delivers, clamped at the
// region's edges, its index in the temporal order, and whether it starts a
// new output-channel tile, so that its weights load. A tile starts one when
// every loop inside the channel loop is at its first trip; under channel
// priority the channel loop is innermost, so every tile does.
type Tile struct {
	Box
	Pos         int
	NewChannels bool
}

// The exact tile hierarchy below is the runtime view of the decomposition
// that Shape describes analytically. Shape covers each level with ceilings
// (every chiplet gets ⌈CO/Chiplets⌉ channels, every tile is full); these
// split each level into balanced parts and clamp edge tiles, so the tiles of
// all chiplets and cores cover the layer's output exactly once.

// ChipletRegion returns chiplet c's output region under the package spatial
// split.
func (m *Mapping) ChipletRegion(l *workload.Layer, hw *hardware.Config, c int) Box {
	if m.PackageSpatial == SpatialC {
		lo, hi := Share(l.CO, hw.Chiplets, c)
		return Box{lo, hi, 0, l.HO, 0, l.WO}
	}
	h0, h1 := Share(l.HO, m.PackagePattern.Rows, c/m.PackagePattern.Cols)
	w0, w1 := Share(l.WO, m.PackagePattern.Cols, c%m.PackagePattern.Cols)
	return Box{0, l.CO, h0, h1, w0, w1}
}

// PackageTiles calls f with each HOt×WOt×COt package-temporal tile of a
// chiplet region in PackageTemporal order. It stops at and returns f's
// first error.
func (m *Mapping) PackageTiles(region Box, f func(Tile) error) error {
	return walkTiles(region, m.PackageTemporal, m.COt, m.HOt, m.WOt, f)
}

// CoreRegion returns core's share of one package tile under the chiplet
// spatial split: the core's channel slice is core%ChipletCSplit, its cell
// of the planar pattern core/ChipletCSplit.
func (m *Mapping) CoreRegion(tile Box, core int) Box {
	csplit := max(1, m.ChipletCSplit)
	cell := core / csplit
	c0, c1 := Share(tile.CO(), csplit, core%csplit)
	h0, h1 := Share(tile.HO(), m.ChipletPattern.Rows, cell/m.ChipletPattern.Cols)
	w0, w1 := Share(tile.WO(), m.ChipletPattern.Cols, cell%m.ChipletPattern.Cols)
	return Box{tile.CO0 + c0, tile.CO0 + c1, tile.HO0 + h0, tile.HO0 + h1, tile.WO0 + w0, tile.WO0 + w1}
}

// CoreTiles calls f with each HOc×WOc×Lanes core-temporal tile of a core
// region in ChipletTemporal order. It stops at and returns f's first error.
func (m *Mapping) CoreTiles(hw *hardware.Config, region Box, f func(Tile) error) error {
	return walkTiles(region, m.ChipletTemporal, hw.Lanes, m.HOc, m.WOc, f)
}

// walkTiles calls f with each ct×ht×wt tile of region, in the loop order
// that AppendNest gives the temporal primitive t.
func walkTiles(region Box, t Temporal, ct, ht, wt int, f func(Tile) error) error {
	var buf [3]Loop
	nest := appendOrdered(buf[:0], t,
		Loop{Dim: DimC, Count: ceilDiv(region.CO(), ct)},
		Loop{Dim: DimH, Count: ceilDiv(region.HO(), ht)},
		Loop{Dim: DimW, Count: ceilDiv(region.WO(), wt)})
	var trip [3]int // current trip of each Dim's loop
	pos := 0
	for trip[nest[0].Dim] = range nest[0].Count {
		for trip[nest[1].Dim] = range nest[1].Count {
			for trip[nest[2].Dim] = range nest[2].Count {
				c0, h0, w0 := region.CO0+trip[DimC]*ct, region.HO0+trip[DimH]*ht, region.WO0+trip[DimW]*wt
				tile := Tile{
					Box: Box{c0, min(c0+ct, region.CO1), h0, min(h0+ht, region.HO1), w0, min(w0+wt, region.WO1)},
					Pos: pos, NewChannels: true,
				}
				for k := len(nest) - 1; nest[k].Dim != DimC; k-- {
					tile.NewChannels = tile.NewChannels && trip[nest[k].Dim] == 0
				}
				if err := f(tile); err != nil {
					return err
				}
				pos++
			}
		}
	}
	return nil
}
