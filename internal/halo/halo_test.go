package halo

import (
	"math"
	"testing"
	"testing/quick"

	"nnbaton/internal/mapping"
	"nnbaton/internal/workload"
)

func resnetConv1At512() workload.Layer {
	// ResNet-50 conv1 with a 512x512 input: 7x7 kernel, stride 2 -> 256x256.
	return workload.Layer{Model: "ResNet-50", Name: "conv1", HO: 256, WO: 256, CO: 64, CI: 3,
		R: 7, S: 7, StrideH: 2, StrideW: 2, PadH: 3, PadW: 3}
}

func vggConvAt512() workload.Layer {
	return workload.Layer{Model: "VGG-16", Name: "conv", HO: 512, WO: 512, CO: 64, CI: 64,
		R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
}

func TestSplitExtents(t *testing.T) {
	// A 1x1 stride-1 kernel reads exactly each part's own extent.
	got := inputIntervals(10, 4, 1, 1)
	want := []interval{{0, 3}, {3, 6}, {6, 8}, {8, 10}}
	if len(got) != len(want) {
		t.Fatalf("inputIntervals(10,4) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("inputIntervals(10,4) = %v, want %v", got, want)
		}
	}
	if n := len(inputIntervals(3, 8, 1, 1)); n != 3 {
		t.Errorf("over-split kept %d parts, want 3", n)
	}
	if inputIntervals(5, 0, 1, 1) != nil {
		t.Error("zero parts should be nil")
	}
}

func TestAxisStatsNoOverlapPointwise(t *testing.T) {
	// 1x1 kernel stride 1: partitions never overlap.
	sum, union, cover := axisStats(56, 4, 1, 1)
	if sum != union || cover != 1 {
		t.Errorf("pointwise axis: sum=%d union=%d cover=%d", sum, union, cover)
	}
}

func TestAxisStatsKnownOverlap(t *testing.T) {
	// 8 outputs split in 2, kernel 3 stride 1: inputs [0,6) and [4,10):
	// sum 12, union 10, overlap covered by both = 2 elements.
	sum, union, cover := axisStats(8, 2, 3, 1)
	if sum != 12 || union != 10 || cover != 2 {
		t.Errorf("got sum=%d union=%d cover=%d", sum, union, cover)
	}
}

func TestRedundancyShapes(t *testing.T) {
	rn, vgg := resnetConv1At512(), vggConvAt512()
	// The 7x7 stride-2 layer has 5-element halos on each side; fine tiles
	// explode the redundancy (up to ~650% in the paper).
	fine := TileRedundancy(rn, 2, 2)
	if fine < 3.0 {
		t.Errorf("ResNet conv1 2x2 tiles redundancy = %.2f, expected > 300%%", fine)
	}
	// Redundancy shrinks as tiles grow.
	coarse := TileRedundancy(rn, 64, 64)
	if coarse >= fine || coarse > 0.5 {
		t.Errorf("coarse redundancy %.2f should be far below fine %.2f", coarse, fine)
	}
	// The 3x3 VGG layer sits well below the 7x7 layer at equal tiles.
	if v := TileRedundancy(vgg, 16, 16); v >= TileRedundancy(rn, 16, 16) {
		t.Errorf("3x3 redundancy %.2f should be below 7x7 %.2f", v, TileRedundancy(rn, 16, 16))
	}
	// Square tiles beat stripes of the same element count.
	sq := TileRedundancy(vgg, 16, 16)
	stripe := TileRedundancy(vgg, 4, 64)
	if sq >= stripe {
		t.Errorf("square %.3f should beat 1:16 stripe %.3f", sq, stripe)
	}
}

func TestSquareVsRectangleGapNarrows(t *testing.T) {
	// Fig 7: the square-vs-rectangle gap narrows as tiles grow.
	vgg := vggConvAt512()
	gapAt := func(elems int) float64 {
		th1, tw1 := TileDims(vgg, elems, 1, 1)
		th4, tw4 := TileDims(vgg, elems, 1, 4)
		return TileRedundancy(vgg, th4, tw4) - TileRedundancy(vgg, th1, tw1)
	}
	if g16, g1024 := gapAt(16), gapAt(1024); g1024 >= g16 {
		t.Errorf("gap should narrow with tile size: 16->%.3f 1024->%.3f", g16, g1024)
	}
}

func TestMaxConflictFig8(t *testing.T) {
	vgg := vggConvAt512()
	square := MaxConflict(vgg, mapping.Pattern{Rows: 2, Cols: 2})
	rect := MaxConflict(vgg, mapping.Pattern{Rows: 1, Cols: 4})
	if square != 4 {
		t.Errorf("square pattern conflict = %d, want 4", square)
	}
	if rect != 2 {
		t.Errorf("rectangle pattern conflict = %d, want 2", rect)
	}
}

func TestDuplicatedBytes(t *testing.T) {
	vgg := vggConvAt512()
	d := DuplicatedBytes(vgg, mapping.Pattern{Rows: 2, Cols: 2})
	// One 3x3 s1 split in half per axis duplicates 2 input rows and 2 input
	// columns: 2*514*64*2 - 2*2*64 (corner counted in both axes).
	if d <= 0 {
		t.Fatalf("expected positive duplication, got %d", d)
	}
	if dp := DuplicatedBytes(workload.Layer{HO: 56, WO: 56, CO: 8, CI: 8, R: 1, S: 1, StrideH: 1, StrideW: 1},
		mapping.Pattern{Rows: 2, Cols: 2}); dp != 0 {
		t.Errorf("pointwise duplication = %d, want 0", dp)
	}
}

func TestTileDims(t *testing.T) {
	vgg := vggConvAt512()
	th, tw := TileDims(vgg, 64, 1, 1)
	if th != 8 || tw != 8 {
		t.Errorf("1:1 64 elems = %dx%d, want 8x8", th, tw)
	}
	th, tw = TileDims(vgg, 64, 1, 4)
	if th != 4 || tw != 16 {
		t.Errorf("1:4 64 elems = %dx%d, want 4x16", th, tw)
	}
	// Clamped to the plane and defensive against bad inputs.
	small := workload.Layer{HO: 4, WO: 4, CO: 1, CI: 1, R: 3, S: 3, StrideH: 1, StrideW: 1}
	th, tw = TileDims(small, 1000, 0, 0)
	if th != 4 || tw != 4 {
		t.Errorf("clamped dims = %dx%d", th, tw)
	}
}

// Property: redundancy is non-negative and zero for 1x1 kernels.
func TestRedundancyProperties(t *testing.T) {
	f := func(rows, cols, k, s uint8) bool {
		l := workload.Layer{HO: 64, WO: 64, CO: 4, CI: 4,
			R: int(k%5) + 1, S: int(k%5) + 1, StrideH: int(s%3) + 1, StrideW: int(s%3) + 1}
		p := mapping.Pattern{Rows: int(rows%8) + 1, Cols: int(cols%8) + 1}
		r := Redundancy(l, p)
		if r < 0 {
			return false
		}
		if l.R == 1 && l.S == 1 && r != 0 {
			return false
		}
		// Stride >= kernel eliminates overlap entirely.
		if l.StrideH >= l.R && l.StrideW >= l.S && math.Abs(r) > 1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRedundancySeries(t *testing.T) {
	rn := resnetConv1At512()
	pts := RedundancySeries(rn, []int{16, 64, 256, 1024}, 1, 1)
	if len(pts) != 4 {
		t.Fatalf("series length %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Redundancy > pts[i-1].Redundancy {
			t.Errorf("redundancy should fall with tile size: %+v", pts)
		}
	}
}

// Regression lock: the Fig 7 headline numbers recorded in EXPERIMENTS.md.
func TestFig7RegressionValues(t *testing.T) {
	rn := resnetConv1At512()
	cases := []struct {
		th, tw int
		want   float64
	}{
		{2, 2, 3.965}, {4, 4, 1.590}, {8, 8, 0.689}, {16, 16, 0.311},
	}
	for _, c := range cases {
		got := TileRedundancy(rn, c.th, c.tw)
		if got < c.want-0.01 || got > c.want+0.01 {
			t.Errorf("TileRedundancy(%dx%d) = %.3f, want %.3f", c.th, c.tw, got, c.want)
		}
	}
}
