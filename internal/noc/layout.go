package noc

import (
	"fmt"

	"nnbaton/internal/mapping"
	"nnbaton/internal/workload"
)

// Layout selects how the input feature map is distributed across the
// package's DRAM channels (§IV-C: "An appropriate data layout is
// indispensable to avoid memory access conflict").
type Layout int

const (
	// RowInterleaved stripes input rows across channels round-robin —
	// simple, but every chiplet touches every channel.
	RowInterleaved Layout = iota
	// RegionAligned stores each chiplet's planar region in its own channel,
	// so only halo rows cross channels.
	RegionAligned
)

// String implements fmt.Stringer.
func (l Layout) String() string {
	switch l {
	case RowInterleaved:
		return "row-interleaved"
	case RegionAligned:
		return "region-aligned"
	}
	return fmt.Sprintf("Layout(%d)", int(l))
}

// ConflictProfile reports how a planar package split loads the DRAM channels
// under a data layout.
type ConflictProfile struct {
	Layout Layout
	// ChannelBytes is the total activation bytes served by each channel.
	ChannelBytes []int64
	// RemoteBytes is the volume chiplets read from channels other than
	// their own (crossing the package crossbar).
	RemoteBytes int64
	// TotalBytes is the summed activation demand of all chiplets (halo
	// rereads included).
	TotalBytes int64
	// Imbalance is max channel load over the balanced load (1.0 = even).
	Imbalance float64
}

// rowRange returns the input-row interval [lo, hi) read by a grid row of the
// pattern, including the kernel halo.
func rowRange(l workload.Layer, rows, idx int) (lo, hi int) {
	first, end := mapping.Share(l.HO, rows, idx)
	lo = first * l.StrideH
	return lo, lo + workload.InExtent(end-first, l.R, l.StrideH)
}

// AnalyzeLayout computes the conflict profile of a package planar pattern
// over `channels` DRAM channels (one per chiplet in the paper's system). The
// row granularity of one input row across the full width and all input
// channels is the interleaving unit.
func AnalyzeLayout(l workload.Layer, p mapping.Pattern, channels int, layout Layout) (ConflictProfile, error) {
	if err := l.Validate(); err != nil {
		return ConflictProfile{}, err
	}
	if channels < 1 {
		return ConflictProfile{}, fmt.Errorf("noc: need at least one channel, got %d", channels)
	}
	if p.Rows < 1 || p.Cols < 1 {
		return ConflictProfile{}, fmt.Errorf("noc: bad pattern %v", p)
	}
	rowBytes := int64(l.IW()) * int64(l.CI)
	prof := ConflictProfile{Layout: layout, ChannelBytes: make([]int64, channels)}

	// owner maps an input row to its home channel.
	ih := l.IH()
	owner := make([]int, ih)
	switch layout {
	case RowInterleaved:
		for r := 0; r < ih; r++ {
			owner[r] = r % channels
		}
	case RegionAligned:
		// Rows are homed with the grid row that owns them (halo-free span);
		// grid rows map to channel groups.
		for r := 0; r < ih; r++ {
			owner[r] = channels - 1
		}
		for gr := 0; gr < p.Rows; gr++ {
			lo, hi := rowRange(l, p.Rows, gr)
			// The non-halo body of the region claims its rows.
			for r := lo; r < hi && r < ih; r++ {
				owner[r] = (gr * channels / p.Rows) % channels
			}
		}
	default:
		return ConflictProfile{}, fmt.Errorf("noc: unknown layout %v", layout)
	}

	// Each grid cell reads its input rows (with halo) in full width.
	for gr := 0; gr < p.Rows; gr++ {
		lo, hi := rowRange(l, p.Rows, gr)
		for gc := 0; gc < p.Cols; gc++ {
			chiplet := (gr*p.Cols + gc) % channels
			home := chiplet
			if layout == RegionAligned {
				home = (gr * channels / p.Rows) % channels
			}
			// Column splits read a fraction of each row.
			colShare := rowBytes / int64(p.Cols)
			for r := lo; r < hi && r < ih; r++ {
				prof.ChannelBytes[owner[r]] += colShare
				prof.TotalBytes += colShare
				if owner[r] != home {
					prof.RemoteBytes += colShare
				}
			}
		}
	}
	balanced := float64(prof.TotalBytes) / float64(channels)
	if balanced > 0 {
		var peak int64
		for _, b := range prof.ChannelBytes {
			peak = max(peak, b)
		}
		prof.Imbalance = float64(peak) / balanced
	}
	return prof, nil
}
