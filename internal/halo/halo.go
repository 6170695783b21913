// Package halo analyzes the input-feature overlap (halo) produced by planar
// partitioning (§IV-C): the redundant memory access of different partition
// patterns (Fig 7) and the DRAM access conflicts of package-level patterns
// (Fig 8).
package halo

import (
	"nnbaton/internal/mapping"
	"nnbaton/internal/obs"
	"nnbaton/internal/workload"
)

// interval is a half-open input-coordinate range [lo, hi).
type interval struct{ lo, hi int }

// inputIntervals splits an axis of extent output elements into min(n,
// extent) balanced parts and maps each part to its input interval.
func inputIntervals(extent, n, kernel, stride int) []interval {
	var out []interval
	for i := range min(n, extent) {
		lo, hi := mapping.Share(extent, n, i)
		out = append(out, interval{lo * stride, lo*stride + workload.InExtent(hi-lo, kernel, stride)})
	}
	return out
}

// axisStats returns, for an axis of extent output elements split into n
// balanced parts, the summed input length across parts, the union input
// length, and the maximum number of parts covering any single input
// coordinate.
func axisStats(extent, n, kernel, stride int) (sum, union, maxCover int) {
	ivs := inputIntervals(extent, n, kernel, stride)
	if len(ivs) == 0 {
		return 0, 0, 0
	}
	hi := 0
	for _, iv := range ivs {
		sum += iv.hi - iv.lo
		hi = max(hi, iv.hi)
	}
	// Sweep coverage counts over the union extent.
	cover := make([]int, hi)
	for _, iv := range ivs {
		for x := iv.lo; x < iv.hi; x++ {
			cover[x]++
		}
	}
	for _, c := range cover {
		if c > 0 {
			union++
		}
		maxCover = max(maxCover, c)
	}
	return sum, union, maxCover
}

// Redundancy returns the fractional extra input access caused by splitting
// the layer's output plane into a rows×cols grid: (Σ part inputs − union
// input)/union input, over all input channels. A value of 6.5 means 650%
// extra access (Fig 7's worst case for ResNet-50 conv1 at fine tiles).
func Redundancy(l workload.Layer, p mapping.Pattern) float64 {
	hSum, hUnion, _ := axisStats(l.HO, p.Rows, l.R, l.StrideH)
	wSum, wUnion, _ := axisStats(l.WO, p.Cols, l.S, l.StrideW)
	if hUnion == 0 || wUnion == 0 {
		return 0
	}
	total := float64(hSum) * float64(wSum)
	union := float64(hUnion) * float64(wUnion)
	return (total - union) / union
}

// MaxConflict returns the maximum number of grid cells whose input regions
// include the same input element — the DRAM access conflict degree of Fig 8.
// A 2×2 square pattern yields 4 at the central halo; a 1×4 rectangle yields
// at most 2.
func MaxConflict(l workload.Layer, p mapping.Pattern) int {
	_, _, hc := axisStats(l.HO, p.Rows, l.R, l.StrideH)
	_, _, wc := axisStats(l.WO, p.Cols, l.S, l.StrideW)
	return hc * wc
}

// DuplicatedBytes returns the absolute duplicated input volume (bytes over
// all input channels) of a rows×cols planar split.
func DuplicatedBytes(l workload.Layer, p mapping.Pattern) int64 {
	hSum, hUnion, _ := axisStats(l.HO, p.Rows, l.R, l.StrideH)
	wSum, wUnion, _ := axisStats(l.WO, p.Cols, l.S, l.StrideW)
	return (int64(hSum)*int64(wSum) - int64(hUnion)*int64(wUnion)) * int64(l.CI)
}

// TileDims converts a target tile element count and an aspect ratio
// (ratioH:ratioW) into tile height/width, clamped to the layer plane. It is
// the x-axis generator of Fig 7: e.g. elems=64 with ratio 1:1 gives 8×8,
// with ratio 1:4 gives 4×16.
func TileDims(l workload.Layer, elems, ratioH, ratioW int) (th, tw int) {
	if elems < 1 {
		elems = 1
	}
	if ratioH < 1 {
		ratioH = 1
	}
	if ratioW < 1 {
		ratioW = 1
	}
	// th/tw = ratioH/ratioW with th*tw ≈ elems.
	unit := 1
	for (unit*ratioH)*(unit*ratioW) < elems {
		unit++
	}
	th, tw = unit*ratioH, unit*ratioW
	th = min(th, l.HO)
	tw = min(tw, l.WO)
	return th, tw
}

// TileRedundancy returns the redundancy of temporally tiling the full plane
// into th×tw tiles (the Fig 7 per-tile view): the grid is the ceiling cover
// of the plane.
func TileRedundancy(l workload.Layer, th, tw int) float64 {
	rows := (l.HO + th - 1) / th
	cols := (l.WO + tw - 1) / tw
	return Redundancy(l, mapping.Pattern{Rows: rows, Cols: cols})
}

// SeriesPoint is one Fig 7 sample: a tile size against its redundant access.
type SeriesPoint struct {
	Elems      int     // output elements per tile
	TileH      int     // tile height
	TileW      int     // tile width
	Redundancy float64 // fractional extra input access
}

// RedundancySeries sweeps tile sizes for one aspect ratio, regenerating one
// curve of Fig 7. Timed under the halo.redundancy phase of the default obs
// registry when metrics are enabled.
func RedundancySeries(l workload.Layer, elems []int, ratioH, ratioW int) []SeriesPoint {
	defer obs.Time("halo.redundancy")()
	out := make([]SeriesPoint, 0, len(elems))
	for _, e := range elems {
		th, tw := TileDims(l, e, ratioH, ratioW)
		out = append(out, SeriesPoint{
			Elems: e, TileH: th, TileW: tw,
			Redundancy: TileRedundancy(l, th, tw),
		})
	}
	return out
}
