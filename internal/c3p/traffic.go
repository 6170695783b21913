package c3p

import (
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapping"
	"nnbaton/internal/obs"
	"nnbaton/internal/workload"
)

// Traffic aggregates the memory access volumes of one layer execution across
// the whole package. Volumes are bytes except OL1RMW (24-bit read-modify-
// write operations) and MACs (8-bit multiply-accumulates). The D2DPsums and
// L2Psum fields are produced only by the Simba weight-centric baseline,
// whose dataflow moves 24-bit partial sums between units (§III-B).
type Traffic struct {
	DRAMActReads  int64 // DRAM → package activation reads
	DRAMWtReads   int64 // DRAM → package weight reads
	DRAMOutWrites int64 // package → DRAM output writes

	D2DActs   int64 // die-to-die activation bytes (rotating transfer)
	D2DWts    int64 // die-to-die weight bytes (rotating transfer)
	D2DPsums  int64 // die-to-die 24-bit partial-sum bytes (Simba baseline)
	D2DOutput int64 // die-to-die output collection bytes (Simba baseline)

	AL2Writes, AL2Reads int64 // chiplet shared activation buffer
	AL1Writes, AL1Reads int64 // core local activation buffer
	WL1Writes, WL1Reads int64 // core local weight buffer (pooled)
	OL2Writes, OL2Reads int64 // chiplet output buffer
	L2Psum              int64 // L2 partial-sum spill bytes (Simba baseline)

	OL1RMW int64 // output register read-modify-write operations
	MACs   int64 // multiply-accumulate operations
}

// Add returns the element-wise sum of two traffic records.
func (t Traffic) Add(o Traffic) Traffic {
	t.DRAMActReads += o.DRAMActReads
	t.DRAMWtReads += o.DRAMWtReads
	t.DRAMOutWrites += o.DRAMOutWrites
	t.D2DActs += o.D2DActs
	t.D2DWts += o.D2DWts
	t.D2DPsums += o.D2DPsums
	t.D2DOutput += o.D2DOutput
	t.AL2Writes += o.AL2Writes
	t.AL2Reads += o.AL2Reads
	t.AL1Writes += o.AL1Writes
	t.AL1Reads += o.AL1Reads
	t.WL1Writes += o.WL1Writes
	t.WL1Reads += o.WL1Reads
	t.OL2Writes += o.OL2Writes
	t.OL2Reads += o.OL2Reads
	t.L2Psum += o.L2Psum
	t.OL1RMW += o.OL1RMW
	t.MACs += o.MACs
	return t
}

// DRAMBytes returns total off-package traffic.
func (t *Traffic) DRAMBytes() int64 { return t.DRAMActReads + t.DRAMWtReads + t.DRAMOutWrites }

// D2DBytes returns total die-to-die traffic.
func (t *Traffic) D2DBytes() int64 { return t.D2DActs + t.D2DWts + t.D2DPsums + t.D2DOutput }

// ScaleD2D returns the traffic with the die-to-die components scaled by the
// exact rational num/den (ceil division, so the result stays an upper bound
// on the true byte count and is exact when den divides the component). Used
// to convert logical ring traffic to physical link traffic on a degraded
// fabric where each logical hop averages num/den physical links
// (noc.Ring.D2DScale); num == den is the identity.
func (t Traffic) ScaleD2D(num, den int64) Traffic {
	if num == den || den <= 0 {
		return t
	}
	t.D2DActs = scaleCeil(t.D2DActs, num, den)
	t.D2DWts = scaleCeil(t.D2DWts, num, den)
	t.D2DPsums = scaleCeil(t.D2DPsums, num, den)
	t.D2DOutput = scaleCeil(t.D2DOutput, num, den)
	return t
}

// D2DBytesScaled returns ScaleD2D(num, den).D2DBytes() without copying the
// record, for pricing.
func (t *Traffic) D2DBytesScaled(num, den int64) int64 {
	if num == den || den <= 0 {
		return t.D2DBytes()
	}
	return scaleCeil(t.D2DActs, num, den) + scaleCeil(t.D2DWts, num, den) +
		scaleCeil(t.D2DPsums, num, den) + scaleCeil(t.D2DOutput, num, den)
}

// scaleCeil scales one positive byte count by num/den, rounding up.
func scaleCeil(v, num, den int64) int64 {
	if v <= 0 {
		return v
	}
	return (v*num + den - 1) / den
}

// Analysis is the C³P evaluation of one (layer, hardware, mapping) triple.
// The buffer-size-dependent components are retained as FillAnalysis step
// functions so the memory design space can be swept without re-analyzing.
type Analysis struct {
	Layer workload.Layer
	HW    hardware.Config
	Map   mapping.Mapping
	Shape mapping.Shape

	// WL1 is the per-weight-group fill analysis; capacity is the merged
	// W-L1 pool (WL1Bytes × WeightShareCores).
	WL1 FillAnalysis
	// AL2 is the per-chiplet activation fill analysis over the package
	// nest; capacity is AL2Bytes.
	AL2 FillAnalysis
	// AL1 is the per-core per-chiplet-workload activation fill analysis
	// over the chiplet nest; capacity is AL1Bytes.
	AL1 FillAnalysis

	fixed Traffic // buffer-size-independent traffic
}

// Analyze validates the mapping and builds its C³P analysis. The access
// counting is timed under the c3p.analyze phase of the default obs registry
// when metrics are enabled.
func Analyze(l workload.Layer, hw hardware.Config, m mapping.Mapping) (*Analysis, error) {
	defer obs.Time("c3p.analyze")()
	if err := m.Validate(l, hw); err != nil {
		return nil, err
	}
	a := &Analysis{}
	AnalyzeInto(a, &Scratch{}, &l, &hw, &m)
	return a, nil
}

// Scratch holds the reusable working buffers of AnalyzeInto: the loop nest
// and one threshold buffer per analyzed fill stream. A zero Scratch is ready
// to use; after a few calls the buffers reach steady state and AnalyzeInto
// stops allocating. A Scratch must not be shared between goroutines.
type Scratch struct {
	nest               []mapping.Loop
	wths, a2ths, a1ths []Threshold
}

// AnalyzeInto is the allocation-free core of Analyze: it rebuilds a in place
// using sc's buffers, skipping validation — the mapping must already be known
// feasible (mapping.Mapping.Feasible). The resulting Analysis aliases sc's
// threshold buffers and is invalidated by the next AnalyzeInto call with the
// same Scratch; call Clone to retain it.
func AnalyzeInto(a *Analysis, sc *Scratch, l *workload.Layer, hw *hardware.Config, m *mapping.Mapping) {
	a.Layer, a.HW, a.Map = *l, *hw, *m
	a.Shape = m.Shape(l, hw)
	s := &a.Shape

	// AppendNest lays out the package level in nest[:3] and the chiplet
	// level in nest[3:], so one append serves all three walks.
	sc.nest = m.AppendNest(sc.nest[:0], s)
	w := walker{record: true, ths: sc.wths[:0]}
	weightWalk(&w, l, sc.nest, hw.Lanes)
	a.WL1, sc.wths = w.analysis(), w.ths
	w = walker{record: true, ths: sc.a2ths[:0]}
	activationWalk(&w, l, sc.nest[:3], m.HOt, m.WOt, l.CI)
	a.AL2, sc.a2ths = w.analysis(), w.ths
	w = walker{record: true, ths: sc.a1ths[:0]}
	al1Walk(&w, l, hw, m, sc.nest[3:])
	a.AL1, sc.a1ths = w.analysis(), w.ths

	FixedTraffic(&a.fixed, l, hw, m, s)
}

// al1Walk is the A-L1 activation walk over the chiplet nest plus its
// supplemental Cc0 point: below one double-buffered P-channel slice of the
// core tile, the R×S window passes each refetch the slice from A-L2.
func al1Walk(w *walker, l *workload.Layer, hw *hardware.Config, m *mapping.Mapping, chipletNest []mapping.Loop) {
	activationWalk(w, l, chipletNest, m.HOc, m.WOc, l.CI)
	w.inner(mapping.CoreAL1Need(l, hw, m.HOc, m.WOc), int64(l.R)*int64(l.S))
}

// StageTraffic writes into t the traffic of a feasible mapping at hw's own
// buffer sizes — field for field what AnalyzeInto followed by Traffic
// returns — without building an Analysis: the three walks run in evaluating
// mode at the A-L1, merged W-L1 and A-L2 capacities, so no threshold list,
// shape or struct copy is made. s is m's shape and fixed its FixedTraffic;
// sc lends the nest buffer. The search prices every temporal variant this
// way and analyzes only the few that survive the stage prune.
func StageTraffic(t *Traffic, sc *Scratch, l *workload.Layer, hw *hardware.Config, m *mapping.Mapping,
	s *mapping.Shape, fixed *Traffic) {
	sc.nest = m.AppendNest(sc.nest[:0], s)
	wl1 := walker{at: int64(hw.WL1Bytes) * int64(s.WeightShareCores)}
	weightWalk(&wl1, l, sc.nest, hw.Lanes)
	al2 := walker{at: int64(hw.AL2Bytes)}
	activationWalk(&al2, l, sc.nest[:3], m.HOt, m.WOt, l.CI)
	al1 := walker{at: int64(hw.AL1Bytes)}
	al1Walk(&al1, l, hw, m, sc.nest[3:])
	*t = *fixed
	assembleTraffic(t, hw, m, s, wl1.fills(), al2.fills(), al1.fills())
}

// Clone detaches the analysis from any Scratch buffers it aliases, returning
// a copy that stays valid after the scratch is reused.
func (a *Analysis) Clone() *Analysis {
	out := *a
	// One backing array holds all three threshold lists; each list is capped
	// at its own length, so appending to one can never overwrite the next.
	nw, n2 := len(a.WL1.Thresholds), len(a.AL2.Thresholds)
	ths := make([]Threshold, 0, nw+n2+len(a.AL1.Thresholds))
	ths = append(append(append(ths, a.WL1.Thresholds...), a.AL2.Thresholds...), a.AL1.Thresholds...)
	out.WL1.Thresholds = ths[:nw:nw]
	out.AL2.Thresholds = ths[nw : nw+n2 : nw+n2]
	out.AL1.Thresholds = ths[nw+n2:]
	return &out
}

// FixedTraffic sets t to the buffer-size-independent traffic of m, the part
// of the record that the fill volumes complete (assembleTraffic). It depends
// on m's tiles and shape s but not on its temporal orders, so one record
// serves every temporal variant of a tile choice. The traffic helpers fill
// records in place because the search calls them per candidate and per
// bound, and returning a record built in a branching body costs a 144-byte
// copy.
func FixedTraffic(t *Traffic, l *workload.Layer, hw *hardware.Config, m *mapping.Mapping, s *mapping.Shape) {
	*t = Traffic{}
	chiplets := int64(hw.Chiplets)
	cores := int64(hw.Cores)
	pkgPos := s.PackagePositions()
	chipPos := s.ChipletPositions()
	coreWorkloads := chiplets * cores * pkgPos * chipPos
	cyclesPerWL := mapping.CoreCycles(l, hw, m.HOc, m.WOc)
	activeLanes := int64(min(hw.Lanes, s.COs))

	t.MACs = l.MACs()
	t.OL1RMW = coreWorkloads * cyclesPerWL * activeLanes
	t.AL1Reads = coreWorkloads * cyclesPerWL * int64(hw.Vector) * mapping.LaneGroupSpan(l, hw)
	// Weight register loads: one pass of the group's weight set per core
	// workload position, broadcast across the sharing cores.
	wtPerWL := int64(hw.Lanes) * int64(hw.Vector) * mapping.CoreCycles(l, hw, 1, 1)
	groups := int64(s.PlanarShareCores) // distinct weight groups per chiplet
	t.WL1Reads = chiplets * groups * pkgPos * chipPos * wtPerWL

	out := l.OutputBytes()
	t.DRAMOutWrites = out
	t.OL2Writes = out
	t.OL2Reads = out
}

// Traffic evaluates the total package traffic at the analysis' own hardware
// buffer sizes.
func (a *Analysis) Traffic() Traffic {
	return a.TrafficAt(a.HW.AL1Bytes, a.HW.WL1Bytes, a.HW.AL2Bytes)
}

// TrafficAt evaluates the total package traffic with substituted buffer
// sizes (per-core A-L1 and W-L1, per-chiplet A-L2). This is the fast path of
// the pre-design memory sweep.
func (a *Analysis) TrafficAt(al1, wl1, al2 int) (t Traffic) {
	pool := int64(wl1) * int64(a.Shape.WeightShareCores)
	t = a.fixed
	assembleTraffic(&t, &a.HW, &a.Map, &a.Shape,
		a.WL1.Fills(pool), a.AL2.Fills(int64(al2)), a.AL1.Fills(int64(al1)))
	return t
}

// Axis parts. Every traffic field of TrafficAt takes its volume from the
// fixed record or from one buffer's fills, except the A-L2 reads, which add
// the rotation reads (A-L2 fills) to AL1Writes/PlanarShareCores (A-L1
// fills). So the record splits exactly by buffer axis, field for field:
//
//	TrafficAt(al1, wl1, al2) ==
//		Fixed().Add(WL1Part(wl1)).Add(AL2Part(al2)).Add(AL1Part(al1))
//
// DRAM reads come from the A-L2 and W-L1 parts and the output writes from
// the fixed part, die-to-die bytes from the A-L2 and W-L1 parts (one field
// each, so they scale part by part), A-L2 traffic from the A-L2 and A-L1
// parts, A-L1 and W-L1 traffic from their own part plus fixed register
// reads, and O-L1, O-L2 and MAC counts from the fixed part. Explore prices
// its memory grid from these parts, one per axis value, instead of one
// record per cell. Each part is built through assembleTraffic itself, with
// its own fill volume and the other two at zero, so no distribution branch
// is restated.

// Fixed returns the buffer-size-independent part of the traffic.
func (a *Analysis) Fixed() Traffic { return a.fixed }

// WL1Part returns the traffic the W-L1 fills at a per-core W-L1 size of wl1
// bytes contribute.
func (a *Analysis) WL1Part(wl1 int) (t Traffic) {
	assembleTraffic(&t, &a.HW, &a.Map, &a.Shape, a.WL1.Fills(int64(wl1)*int64(a.Shape.WeightShareCores)), 0, 0)
	return t
}

// AL2Part returns the traffic the A-L2 fills at an A-L2 size of al2 bytes
// contribute.
func (a *Analysis) AL2Part(al2 int) (t Traffic) {
	assembleTraffic(&t, &a.HW, &a.Map, &a.Shape, 0, a.AL2.Fills(int64(al2)), 0)
	return t
}

// AL1Part returns the traffic the A-L1 fills at an A-L1 size of al1 bytes
// contribute.
func (a *Analysis) AL1Part(al1 int) (t Traffic) {
	assembleTraffic(&t, &a.HW, &a.Map, &a.Shape, 0, 0, a.AL1.Fills(int64(al1)))
	return t
}

// assembleTraffic combines the fixed traffic in t with the three fill volumes —
// per-weight-group W-L1 fills, per-chiplet A-L2 fills, per-core-workload A-L1
// fills — through the dataflow's distribution branches. It is the single
// assembly path behind TrafficAt and StageTraffic, and the search's bound
// folds its branches into multipliers (SubtreeFloor, BoundPrefix); it is
// monotone non-decreasing in each fill argument.
func assembleTraffic(t *Traffic, hw *hardware.Config, m *mapping.Mapping, s *mapping.Shape,
	groupFills, chipletActFills, coreActFills int64) {
	chiplets := int64(hw.Chiplets)
	pkgPos := s.PackagePositions()

	// Weights: fills per weight group, with the merged W-L1 pool capacity.
	groups := int64(s.PlanarShareCores)
	perChipletWt := groupFills * groups
	t.WL1Writes = perChipletWt * chiplets
	if m.PackageSpatial == mapping.SpatialP && m.Rotate {
		// All chiplets share the same weights; the rotating transfer reads
		// each fill from DRAM once and forwards it N_P−1 hops on the ring.
		t.DRAMWtReads = perChipletWt
		t.D2DWts = perChipletWt * (chiplets - 1)
	} else if m.PackageSpatial == mapping.SpatialP {
		t.DRAMWtReads = perChipletWt * chiplets // duplicated reads, no ring
	} else {
		t.DRAMWtReads = perChipletWt * chiplets // distinct weights per chiplet
	}

	// Activations at the chiplet boundary (A-L2 fills).
	perChipletAct := chipletActFills
	t.AL2Writes = perChipletAct * chiplets
	if m.PackageSpatial == mapping.SpatialC && m.Rotate {
		// Chiplets share the same planar tiles: each chiplet reads 1/N_P of
		// the input channels from DRAM and receives the rest over the ring.
		t.DRAMActReads = perChipletAct
		t.D2DActs = perChipletAct * (chiplets - 1)
	} else if m.PackageSpatial == mapping.SpatialC {
		t.DRAMActReads = perChipletAct * chiplets // duplicated reads
	} else {
		t.DRAMActReads = perChipletAct * chiplets // distinct planar regions
	}

	// Activations at the core boundary (A-L1 fills), served from A-L2 over
	// the multicast bus: cores along the channel split receive one read.
	perCoreWL := coreActFills
	t.AL1Writes = perCoreWL * int64(hw.Cores) * pkgPos * chiplets
	t.AL2Reads = t.AL1Writes / int64(s.PlanarShareCores)
	if m.PackageSpatial == mapping.SpatialC && m.Rotate {
		// Rotation forwarding also reads the resident chunk out of A-L2.
		t.AL2Reads += perChipletAct * (chiplets - 1)
	}
}

// MinPenaltyFreeAL2 returns the A-L2 capacity above which the package-level
// activation reuse is fully exploited.
func (a *Analysis) MinPenaltyFreeAL2() int64 { return a.AL2.PenaltyFreeCapacity() }

// MinPenaltyFreeWL1Pool returns the merged W-L1 pool capacity above which
// weight reuse is fully exploited.
func (a *Analysis) MinPenaltyFreeWL1Pool() int64 { return a.WL1.PenaltyFreeCapacity() }
