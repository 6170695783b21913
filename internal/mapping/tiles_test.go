package mapping

import (
	"math/rand"
	"testing"

	"nnbaton/internal/hardware"
	"nnbaton/internal/workload"
)

func TestShareBalanced(t *testing.T) {
	// Shares partition [0, total) exactly.
	for _, tc := range []struct{ total, n int }{{10, 4}, {7, 3}, {5, 8}, {1, 1}} {
		covered := 0
		prevHi := 0
		for i := 0; i < tc.n; i++ {
			lo, hi := Share(tc.total, tc.n, i)
			if lo != prevHi {
				t.Fatalf("Share(%d,%d,%d) lo=%d, want %d", tc.total, tc.n, i, lo, prevHi)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != tc.total {
			t.Errorf("Share(%d,%d) covers %d", tc.total, tc.n, covered)
		}
	}
	// The first total%n parts take the extra element; parts past a clamped
	// n are empty at the end of the range.
	for i, want := range [][2]int{{0, 3}, {3, 6}, {6, 8}, {8, 10}} {
		if lo, hi := Share(10, 4, i); lo != want[0] || hi != want[1] {
			t.Errorf("Share(10,4,%d) = [%d,%d), want %v", i, lo, hi, want)
		}
	}
	if lo, hi := Share(5, 8, 6); lo != 5 || hi != 5 {
		t.Errorf("Share(5,8,6) = [%d,%d), want the empty [5,5)", lo, hi)
	}
}

func TestChipletRegionShares(t *testing.T) {
	l := workload.Layer{HO: 57, WO: 57, CO: 50, CI: 8, R: 3, S: 3, StrideH: 1, StrideW: 1}
	hw := hardware.CaseStudy()
	m := validMapping()
	var totalCO int
	for c := 0; c < hw.Chiplets; c++ {
		r := m.ChipletRegion(&l, &hw, c)
		if r.HO() != l.HO || r.WO() != l.WO {
			t.Errorf("C-type chiplet %d region %+v does not span the plane", c, r)
		}
		totalCO += r.CO()
	}
	if totalCO != l.CO {
		t.Errorf("channel shares sum to %d, want %d", totalCO, l.CO)
	}
	// P-type split covers the plane exactly.
	m.PackageSpatial = SpatialP
	m.PackagePattern = Pattern{Rows: 2, Cols: 2}
	rows := m.ChipletRegion(&l, &hw, 0).HO() + m.ChipletRegion(&l, &hw, 2).HO()
	cols := m.ChipletRegion(&l, &hw, 0).WO() + m.ChipletRegion(&l, &hw, 1).WO()
	if rows != l.HO || cols != l.WO {
		t.Errorf("plane shares %dx%d, want %dx%d", rows, cols, l.HO, l.WO)
	}
	if r := m.ChipletRegion(&l, &hw, 3); r.CO() != l.CO || r.HO0 != 29 || r.WO0 != 29 {
		t.Errorf("chiplet 3 region %+v, want all channels from (29,29)", r)
	}
}

// tilesOf collects the tiles a walk yields.
func tilesOf(t *testing.T, walk func(func(Tile) error) error) []Tile {
	t.Helper()
	var out []Tile
	if err := walk(func(tl Tile) error { out = append(out, tl); return nil }); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestPackageTilesTemporalOrders(t *testing.T) {
	m := validMapping() // HOt=WOt=14, COt=16
	region := Box{0, 32, 0, 28, 0, 28}
	m.PackageTemporal = ChannelPriority
	ps := tilesOf(t, func(f func(Tile) error) error { return m.PackageTiles(region, f) })
	if len(ps) != 2*2*2 {
		t.Fatalf("positions = %d", len(ps))
	}
	// Channel-priority steps C innermost and reloads weights on every
	// position.
	if ps[1].CO0 != 16 || ps[1].HO0 != 0 || ps[1].WO0 != 0 {
		t.Errorf("channel-priority second tile %+v, want the next channel tile", ps[1])
	}
	for i, p := range ps {
		if !p.NewChannels || p.Pos != i {
			t.Errorf("position %d = %+v, want Pos %d reloading weights", i, p, i)
		}
	}
	m.PackageTemporal = PlanePriority
	ps = tilesOf(t, func(f func(Tile) error) error { return m.PackageTiles(region, f) })
	if ps[1].CO0 != 0 || ps[1].HO0 != 0 || ps[1].WO0 != 14 {
		t.Errorf("plane-priority second tile %+v, want the next column tile", ps[1])
	}
	fresh := 0
	for _, p := range ps {
		if p.NewChannels {
			fresh++
		}
	}
	// Plane-priority loads weights once per channel tile (2 tiles).
	if fresh != 2 {
		t.Errorf("plane-priority weight loads = %d, want 2", fresh)
	}
	// Channel priority marks every step, even with a single channel tile.
	m.PackageTemporal = ChannelPriority
	for _, p := range tilesOf(t, func(f func(Tile) error) error { return m.PackageTiles(Box{0, 16, 0, 28, 0, 28}, f) }) {
		if !p.NewChannels {
			t.Errorf("single channel tile: position %d does not reload weights", p.Pos)
		}
	}
}

func TestPackageTilesEdgeClamping(t *testing.T) {
	m := validMapping()
	region := Box{0, 20, 0, 30, 0, 30} // 14-tiles over 30: 14,14,2
	seen := map[int]bool{}
	volume := 0
	for _, p := range tilesOf(t, func(f func(Tile) error) error { return m.PackageTiles(region, f) }) {
		if p.HO() > 14 || p.WO() > 14 || p.CO() > 16 {
			t.Errorf("tile %+v exceeds nominal", p)
		}
		if p.CO() <= 0 || p.HO() <= 0 || p.WO() <= 0 {
			t.Errorf("empty tile %+v", p)
		}
		seen[p.HO()] = true
		volume += p.CO() * p.HO() * p.WO()
	}
	if !seen[2] {
		t.Error("edge tile of extent 2 missing")
	}
	if volume != 20*30*30 {
		t.Errorf("tiles cover %d elements, want %d", volume, 20*30*30)
	}
	if err := m.PackageTiles(Box{}, func(Tile) error { t.Error("tile of an empty region"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// nestTrips lists the trip indices, by Dim, that a loop nest visits in
// order.
func nestTrips(nest []Loop) [][3]int {
	var out [][3]int
	var trip [3]int
	var rec func(k int)
	rec = func(k int) {
		if k == len(nest) {
			out = append(out, trip)
			return
		}
		for i := 0; i < nest[k].Count; i++ {
			trip[nest[k].Dim] = i
			rec(k + 1)
		}
	}
	rec(0)
	return out
}

// checkOrder asserts that tiles of region step through the trips of nest,
// numbered in order.
func checkOrder(t *testing.T, m Mapping, level string, region Box, tiles []Tile, ct, ht, wt int, nest []Loop) {
	t.Helper()
	want := nestTrips(nest)
	if len(tiles) != len(want) {
		t.Fatalf("%v: %s level yields %d tiles, nest %v has %d", m, level, len(tiles), nest, len(want))
	}
	for i, tl := range tiles {
		got := [3]int{DimC: (tl.CO0 - region.CO0) / ct, DimH: (tl.HO0 - region.HO0) / ht, DimW: (tl.WO0 - region.WO0) / wt}
		if got != want[i] || tl.Pos != i {
			t.Fatalf("%v: %s tile %d at trips %v Pos %d, nest %v wants %v", m, level, i, got, tl.Pos, nest, want[i])
		}
	}
}

// TestTilesCoverOutputOnce walks random structurally feasible mappings
// through the whole tile hierarchy: the core-temporal tiles of all chiplets
// and cores cover every output element exactly once, and the first
// chiplet's package tiles and its first core's core tiles — the regions the
// ceil view of Shape describes — step through AppendNest's loops in order.
func TestTilesCoverOutputOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	layers := []workload.Layer{
		{Model: "t", Name: "odd", HO: 57, WO: 57, CO: 50, CI: 8, R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{Model: "t", Name: "small", HO: 23, WO: 19, CO: 37, CI: 16, R: 1, S: 1, StrideH: 1, StrideW: 1},
		{Model: "t", Name: "tiny", HO: 7, WO: 9, CO: 13, CI: 4, R: 3, S: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
	}
	two, one := hardware.CaseStudy(), hardware.CaseStudy()
	two.Chiplets, one.Chiplets = 2, 1
	for _, l := range layers {
		for _, hw := range []hardware.Config{hardware.CaseStudy(), two, one} {
			for n := 0; n < 60; {
				m := randomMapping(rng, l, hw)
				if !m.StructurallyFeasible(&l, &hw) {
					continue
				}
				n++
				s := m.Shape(&l, &hw)
				visits := make([]uint8, l.CO*l.HO*l.WO)
				for c := 0; c < hw.Chiplets; c++ {
					region := m.ChipletRegion(&l, &hw, c)
					pkg := tilesOf(t, func(f func(Tile) error) error { return m.PackageTiles(region, f) })
					if c == 0 {
						checkOrder(t, m, "package", region, pkg, m.COt, m.HOt, m.WOt, m.AppendPackageNest(nil, &s))
					}
					for _, p := range pkg {
						if p.NewChannels != (m.PackageTemporal == ChannelPriority || p.HO0 == region.HO0 && p.WO0 == region.WO0) {
							t.Fatalf("%v: tile %+v NewChannels", m, p)
						}
						for core := 0; core < hw.Cores; core++ {
							sub := m.CoreRegion(p.Box, core)
							wls := tilesOf(t, func(f func(Tile) error) error { return m.CoreTiles(&hw, sub, f) })
							if c == 0 && p.Pos == 0 && core == 0 {
								checkOrder(t, m, "core", sub, wls, hw.Lanes, m.HOc, m.WOc, m.AppendChipletNest(nil, &s))
							}
							for _, wl := range wls {
								for co := wl.CO0; co < wl.CO1; co++ {
									for ho := wl.HO0; ho < wl.HO1; ho++ {
										for wo := wl.WO0; wo < wl.WO1; wo++ {
											visits[(co*l.HO+ho)*l.WO+wo]++
										}
									}
								}
							}
						}
					}
				}
				for i, v := range visits {
					if v != 1 {
						t.Fatalf("%v on %s: output %d visited %d times", m, l.Name, i, v)
					}
				}
			}
		}
	}
}
