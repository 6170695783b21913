// Package c3p implements NN-Baton's Critical-Capacity Critical-Position
// (C³P) methodology (§IV-B): a quantitative, analytical model of the memory
// access traffic of a hierarchical mapping.
//
// For each buffer, the temporal loop nest is scanned from the innermost loop
// outward. Loops *relevant* to a datatype (output-channel loops for weights,
// planar loops for activations) accumulate the data footprint; contiguous
// *irrelevant* loops form reuse regions. Exploiting reuse across a region
// requires the buffer to hold the footprint accumulated below it — the
// critical capacity Cc_k at critical position Cp_k. A buffer smaller than
// Cc_k reloads that footprint on every region iteration, multiplying the
// fill traffic by the region's trip count P_k:
//
//	A_tot = A_0 × Π_{k: buf < Cc_k} P_k
//
// (The paper's Equation (1) writes the product as (1 + Π P_k); we use the
// internally-consistent product form implied by its worked examples — see
// DESIGN.md.) Because the result is a step function of the buffer size, an
// Analysis can be re-evaluated for new memory allocations in O(#thresholds),
// which is what makes the Fig 15 memory sweep tractable.
package c3p

import (
	"fmt"

	"nnbaton/internal/hardware"
	"nnbaton/internal/mapping"
	"nnbaton/internal/workload"
)

// Threshold is one critical point: if the buffer capacity is below Capacity
// bytes, fill traffic multiplies by Penalty.
type Threshold struct {
	Capacity int64 // critical capacity Cc_k in bytes
	Penalty  int64 // reuse-region trip count P_k
}

// FillAnalysis is the C³P result for one buffer and one datatype: the
// intrinsic fill volume plus the ordered list of critical points
// (innermost-first).
type FillAnalysis struct {
	// Base is the footprint of the innermost reuse unit in bytes.
	Base int64
	// Intrinsic is the fill volume A_0 with unbounded capacity.
	Intrinsic int64
	// Thresholds holds the critical points from innermost to outermost.
	Thresholds []Threshold
}

// Fills evaluates the total fill volume for a buffer of the given capacity.
func (f FillAnalysis) Fills(capacityBytes int64) int64 {
	total := f.Intrinsic
	for _, t := range f.Thresholds {
		if capacityBytes < t.Capacity {
			total *= t.Penalty
		}
	}
	return total
}

// PenaltyFreeCapacity returns the smallest capacity at which no penalty
// applies (the outermost critical capacity), or 0 if there are no critical
// points.
func (f FillAnalysis) PenaltyFreeCapacity() int64 {
	var capMax int64
	for _, t := range f.Thresholds {
		capMax = max(capMax, t.Capacity)
	}
	return capMax
}

// String summarizes the analysis.
func (f FillAnalysis) String() string {
	return fmt.Sprintf("base=%dB intrinsic=%dB thresholds=%v", f.Base, f.Intrinsic, f.Thresholds)
}

// walker accumulates the generic inner→outer C³P scan in one of two modes.
// A recording walker appends every critical point to ths (a caller-provided
// buffer, nil for the allocating convenience paths), so the resulting
// FillAnalysis can be re-evaluated at any capacity. An evaluating walker
// instead applies each critical point at the one capacity at as it crosses
// it and records nothing: fills() then equals FillAnalysis.Fills(at) of the
// recording walk, which is all the search's stage pricing needs.
type walker struct {
	record    bool
	at        int64 // capacity an evaluating walker prices at
	base      int64 // footprint of the innermost reuse unit
	foot      int64 // accumulated footprint (critical capacity candidate)
	intrinsic int64
	pending   int64 // trip count of the open irrelevant reuse region
	penalty   int64 // product of the penalties incurred at capacity at
	ths       []Threshold
}

func (w *walker) start(base int64) {
	w.base, w.foot, w.intrinsic, w.pending, w.penalty = base, base, base, 1, 1
}

// relevant crosses a relevant loop: flush any open reuse region first (its
// critical capacity is the footprint accumulated so far), then scale the
// footprint and intrinsic volume.
func (w *walker) relevant(count int64, newFoot int64) {
	w.flush()
	w.foot = newFoot
	w.intrinsic *= count
}

// irrelevant extends the open reuse region.
func (w *walker) irrelevant(count int64) { w.pending *= count }

func (w *walker) flush() {
	if w.pending > 1 {
		w.threshold(w.foot, w.pending)
		w.pending = 1
	}
}

// threshold takes one critical point: recorded, or applied when the walk's
// capacity is below it — the same strict test as FillAnalysis.Fills.
func (w *walker) threshold(capacity, penalty int64) {
	if w.record {
		w.ths = append(w.ths, Threshold{Capacity: capacity, Penalty: penalty})
	} else if w.at < capacity {
		w.penalty *= penalty
	}
}

// inner adds the supplemental Cc₀ critical point of Fig 6(e) ahead of the
// walked ones (see WithInnerThreshold), shifting a recording walker's
// thresholds within its own buffer instead of allocating a fresh slice.
func (w *walker) inner(capacity, penalty int64) {
	if penalty <= 1 {
		return
	}
	if !w.record {
		w.threshold(capacity, penalty)
		return
	}
	w.ths = append(w.ths, Threshold{})
	copy(w.ths[1:], w.ths)
	w.ths[0] = Threshold{Capacity: capacity, Penalty: penalty}
}

// analysis returns a recording walk's result.
func (w *walker) analysis() FillAnalysis {
	return FillAnalysis{Base: w.base, Intrinsic: w.intrinsic, Thresholds: w.ths}
}

// fills returns an evaluating walk's fill volume at its capacity.
func (w *walker) fills() int64 { return w.intrinsic * w.penalty }

// WeightWalk analyzes weight fills over a temporal nest (outer→inner). The
// innermost unit is the weight set of one core workload: baseCO output
// channels over the layer's full CI×R×S reduction. Output-channel loops are
// relevant; planar loops are irrelevant.
func WeightWalk(l workload.Layer, nest []mapping.Loop, baseCO int) FillAnalysis {
	w := walker{record: true}
	weightWalk(&w, &l, nest, baseCO)
	return w.analysis()
}

// weightWalk runs the WeightWalk scan through w in either mode.
func weightWalk(w *walker, l *workload.Layer, nest []mapping.Loop, baseCO int) {
	w.start(int64(baseCO) * int64(l.CIPerGroup()) * int64(l.R) * int64(l.S))
	for i := len(nest) - 1; i >= 0; i-- {
		lp := nest[i]
		if lp.Count <= 1 {
			continue
		}
		if lp.Dim == mapping.DimC {
			w.relevant(int64(lp.Count), w.foot*int64(lp.Count))
		} else {
			w.irrelevant(int64(lp.Count))
		}
	}
	// A reuse region at the nest boundary still needs the accumulated
	// footprint to be reused across it (paper example-1).
	w.flush()
}

// ActivationWalk analyzes input-activation fills over a temporal nest
// (outer→inner). The innermost unit is the input tile of a baseHO×baseWO
// output tile across ci channels, including the kernel halo. Planar loops
// are relevant (footprints grow by input extent, so halo overlap is modeled
// exactly); channel loops are irrelevant (the same activations feed every
// output channel).
func ActivationWalk(l workload.Layer, nest []mapping.Loop, baseHO, baseWO, ci int) FillAnalysis {
	w := walker{record: true}
	activationWalk(&w, &l, nest, baseHO, baseWO, ci)
	return w.analysis()
}

// activationWalk runs the ActivationWalk scan through w in either mode.
func activationWalk(w *walker, l *workload.Layer, nest []mapping.Loop, baseHO, baseWO, ci int) {
	h, wo := baseHO, baseWO
	w.start(l.TileInputBytes(h, wo, ci))
	for i := len(nest) - 1; i >= 0; i-- {
		lp := nest[i]
		if lp.Count <= 1 {
			continue
		}
		switch lp.Dim {
		case mapping.DimH:
			h *= lp.Count
			w.relevant(int64(lp.Count), l.TileInputBytes(h, wo, ci))
		case mapping.DimW:
			wo *= lp.Count
			w.relevant(int64(lp.Count), l.TileInputBytes(h, wo, ci))
		default:
			w.irrelevant(int64(lp.Count))
		}
	}
	w.flush()
}

// ActFloor is the fewest activation fills that any temporal order of one
// level can incur at one buffer capacity, factored over the level's channel
// trip count: Base fills when the channel trips multiply nothing, and
// ChanPenalty set when they multiply Base at that capacity. The planar trips
// and the capacity fix both, so a search computes a tile's floor once and
// evaluates it at each channel trip count it bounds with (At).
type ActFloor struct {
	Base        int64
	ChanPenalty bool
}

// At returns the fewest fills at chans channel trips.
func (f ActFloor) At(chans int64) int64 {
	if f.ChanPenalty && chans > 1 {
		return f.Base * chans
	}
	return f.Base
}

// AL2Floor returns the A-L2 fill floor of a hot×wot chiplet tile at an
// al2-byte A-L2, h1w1 being the package's planar trip count.
func AL2Floor(l *workload.Layer, hot, wot int, h1w1, al2 int64) ActFloor {
	return activationFloor(l.TileInputBytes(hot, wot, l.CI), h1w1, al2)
}

// AL1Floor returns the A-L1 fill floor of an hoc×woc core tile at an
// al1-byte A-L1, h2w2 being the chiplet's planar trip count. It adds
// al1Walk's Cc₀ point, which sits below every order's nest.
func AL1Floor(l *workload.Layer, hw *hardware.Config, hoc, woc int, h2w2, al1 int64) ActFloor {
	f := activationFloor(l.TileInputBytes(hoc, woc, l.CI), h2w2, al1)
	if al1 < mapping.CoreAL1Need(l, hw, hoc, woc) {
		f.Base *= int64(l.R) * int64(l.S)
	}
	return f
}

// MinAL2Fills returns the fewest A-L2 fills — Analysis.AL2.Fills(al2) —
// that any package-level temporal order of a hot×wot chiplet tile can
// incur, h1w1 and c1 being the package's planar and channel trip counts.
func MinAL2Fills(l *workload.Layer, hot, wot int, h1w1, c1, al2 int64) int64 {
	return AL2Floor(l, hot, wot, h1w1, al2).At(c1)
}

// MinAL1Fills returns the fewest A-L1 fills — Analysis.AL1.Fills(al1) —
// that any chiplet-level temporal order of an hoc×woc core tile can incur,
// h2w2 and c2 being the chiplet's planar and channel trip counts.
func MinAL1Fills(l *workload.Layer, hw *hardware.Config, hoc, woc int, h2w2, c2, al1 int64) int64 {
	return AL1Floor(l, hw, hoc, woc, h2w2, al1).At(c2)
}

// activationFloor is the activation walk of one level minimized over its
// two temporal orders at a buffer of the given capacity. tile is the level's
// base input footprint and planar its H·W trips. Both orders fill
// tile·planar intrinsically and differ only in where the C reuse region
// closes: channel priority closes it at tile, plane priority at the whole
// planar region's footprint, which is never smaller. Channel priority is
// always one of the search's orders, so the C penalty is unavoidable
// exactly when the capacity is below tile.
func activationFloor(tile, planar, capacity int64) ActFloor {
	return ActFloor{Base: tile * planar, ChanPenalty: capacity < tile}
}

// WithInnerThreshold prepends the supplemental Cc₀ critical point of Fig 6(e):
// below the innermost streaming slice capacity, intra-tile reuse is lost and
// fills multiply by the window-overlap penalty.
func (f FillAnalysis) WithInnerThreshold(capacity, penalty int64) FillAnalysis {
	if penalty <= 1 {
		return f
	}
	out := f
	out.Thresholds = append([]Threshold{{Capacity: capacity, Penalty: penalty}}, f.Thresholds...)
	return out
}
