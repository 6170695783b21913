// Package experiments regenerates every table and figure of the NN-Baton
// paper evaluation as text tables (the experiment index lives in DESIGN.md).
// The cmd/experiments binary is a thin wrapper around this package so the
// drivers are unit-testable. Every driver that maps a workload runs through
// the nnbaton.Baton façade, the same flows the library and the other
// commands call.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"nnbaton"
	"nnbaton/internal/dse"
	"nnbaton/internal/fab"
	"nnbaton/internal/halo"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapping"
	"nnbaton/internal/noc"
	"nnbaton/internal/report"
	"nnbaton/internal/workload"
)

// Experiment is one regenerable paper artifact.
type Experiment struct {
	ID   string
	Desc string
	Run  func(w io.Writer, quick bool) error
}

// drivers holds what the mapping drivers share: the tool and the fabric
// they evaluate on.
type drivers struct {
	tool *nnbaton.Baton
	topo nnbaton.Topology
}

// All returns the experiments in paper order. The mapping drivers run
// through tool on the topo fabric; the ring reproduces the published
// tables. They share the tool's memoized layer searches, so they reuse each
// other's work (e.g. fig13's VGG-16 searches warm the cache for ext-fusion).
func All(tool *nnbaton.Baton, topo nnbaton.Topology) []Experiment {
	d := drivers{tool: tool, topo: topo}
	return []Experiment{
		{"table1", "Table I: energy per operation in the 16nm multichip system", table1},
		{"table2", "Table II: design space of computation and memory resources", table2},
		{"fig7", "Fig 7: redundant memory access of 1:1 vs 1:4 partition patterns", fig7},
		{"fig8", "Fig 8: DRAM conflicts of square vs rectangle package patterns", fig8},
		{"fig10", "Fig 10: linear memory size->area/energy model", fig10},
		{"fig11", "Fig 11: energy breakdown of spatial partition strategies", d.fig11},
		{"fig12", "Fig 12: Simba vs NN-Baton on five distinct layers", d.fig12},
		{"fig13", "Fig 13: model-level Simba vs NN-Baton comparison", d.fig13},
		{"fig14", "Fig 14: chiplet granularity with 2048 MACs", d.fig14},
		{"fig15", "Fig 15: full design space exploration with 4096 MACs", d.fig15},
		{"ext-fusion", "Extension: inter-layer fusion of on-package intermediates", d.extFusion},
		{"ext-cost", "Extension: manufacturing cost vs chiplet granularity (Murphy yield)", extCost},
		{"ext-layout", "Extension: DRAM data layout vs crossbar conflicts", extLayout},
		{"ext-mobilenet", "Extension: grouped-convolution mapping (MobileNetV2)", d.extMobileNet},
		{"ext-degradation", "Extension: graceful degradation of ResNet-50 under a seeded yield series", d.extDegradation},
		{"ext-topology", "Extension: interconnect topology comparison (ring vs mesh vs torus)", d.extTopology},
		{"ext-serving", "Extension: serving-trace simulation (batching + queueing) on healthy and degraded fabrics", d.extServing},
	}
}

// caseHW returns the §VI-A case-study configuration on the drivers' fabric.
func (d drivers) caseHW() nnbaton.Hardware {
	hw := nnbaton.CaseStudyHardware()
	hw.Topology = d.topo
	return hw
}

// tableII returns the Table II space on the drivers' fabric.
func (d drivers) tableII() nnbaton.Space {
	s := nnbaton.TableIISpace()
	s.Topology = d.topo
	return s
}

func table1(w io.Writer, _ bool) error {
	cm := hardware.MustCostModel()
	t := report.New("Table I: energy overhead of typical operations (16 nm)",
		"operation", "energy", "unit", "relative to MAC")
	rel := func(pjPerBit float64) string {
		return fmt.Sprintf("%.2fx", pjPerBit/hardware.MACPJPerOp)
	}
	l2 := cm.SRAMPJPerBit(hardware.L2RefBytes)
	l1 := cm.SRAMPJPerBit(hardware.L1RefBytes)
	rf := cm.RFRMWPJ(hardware.RFRefBytes)
	t.Add("DRAM access", fmt.Sprintf("%.2f", hardware.DRAMPJPerBit), "pJ/bit", rel(hardware.DRAMPJPerBit))
	t.Add("Die-to-die (GRS)", fmt.Sprintf("%.2f", hardware.D2DPJPerBit), "pJ/bit", rel(hardware.D2DPJPerBit))
	t.Add("L2 access (32KB SRAM)", fmt.Sprintf("%.2f", l2), "pJ/bit", rel(l2))
	t.Add("L1 access (1KB SRAM)", fmt.Sprintf("%.2f", l1), "pJ/bit", rel(l1))
	t.Add("Register RMW (1.5KB RF)", fmt.Sprintf("%.3f", rf), "pJ/op", rel(rf))
	t.Add("8-bit MAC", fmt.Sprintf("%.3f", hardware.MACPJPerOp), "pJ/op", "1x")
	return t.Render(w)
}

func table2(w io.Writer, _ bool) error {
	s := dse.TableII()
	t := report.New("Table II: design space", "dimension", "options")
	t.Addf("Vector-MAC (P)", fmt.Sprint(s.Vector))
	t.Addf("# of lanes (L)", fmt.Sprint(s.Lanes))
	t.Addf("# of cores (N_C)", fmt.Sprint(s.Cores))
	t.Addf("# of chiplets (N_P)", fmt.Sprint(s.Chiplets))
	t.Addf("O-L1 (B/lane)", fmt.Sprint(s.OL1PerLane))
	t.Addf("A-L1 (B)", fmt.Sprint(s.AL1))
	t.Addf("W-L1 (B)", fmt.Sprint(s.WL1))
	t.Addf("A-L2 (B)", fmt.Sprint(s.AL2))
	if err := t.Render(w); err != nil {
		return err
	}
	t2 := report.New("Derived enumeration sizes", "MAC budget", "compute allocations", "memory points", "total sweeps")
	for _, macs := range []int{2048, 4096} {
		n := len(s.ComputeConfigs(macs))
		t2.Addf(macs, n, s.MemoryPoints(), n*s.MemoryPoints())
	}
	return t2.Render(w)
}

func fig7(w io.Writer, _ bool) error {
	rn := workload.ResNet50(512)
	vgg := workload.VGG16(512)
	rnConv1, err := rn.Layer("conv1")
	if err != nil {
		return err
	}
	vggConv, err := vgg.Layer("conv3")
	if err != nil {
		return err
	}
	elems := []int{4, 16, 64, 256, 1024, 4096}
	for _, tc := range []struct {
		name  string
		layer workload.Layer
	}{
		{"ResNet-50 conv1 (7x7 s2), 512x512 input", rnConv1},
		{"VGG-16 3x3 conv, 512x512 input", vggConv},
	} {
		t := report.New("Fig 7: redundant access — "+tc.name,
			"tile elems", "1:1 tile", "1:1 extra", "1:4 tile", "1:4 extra")
		sq := halo.RedundancySeries(tc.layer, elems, 1, 1)
		st := halo.RedundancySeries(tc.layer, elems, 1, 4)
		for i := range elems {
			t.Add(fmt.Sprint(elems[i]),
				fmt.Sprintf("%dx%d", sq[i].TileH, sq[i].TileW), report.Pct(sq[i].Redundancy),
				fmt.Sprintf("%dx%d", st[i].TileH, st[i].TileW), report.Pct(st[i].Redundancy))
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

func fig8(w io.Writer, _ bool) error {
	l, err := workload.VGG16(512).Layer("conv1")
	if err != nil {
		return err
	}
	t := report.New("Fig 8: package-level partition patterns over 4 chiplets ("+l.Name+")",
		"pattern", "max DRAM conflict", "duplicated KB", "extra access")
	for _, p := range []mapping.Pattern{{Rows: 2, Cols: 2}, {Rows: 1, Cols: 4}, {Rows: 4, Cols: 1}} {
		t.Add(p.String(),
			fmt.Sprint(halo.MaxConflict(l, p)),
			fmt.Sprintf("%.1f", float64(halo.DuplicatedBytes(l, p))/1024),
			report.Pct(halo.Redundancy(l, p)))
	}
	return t.Render(w)
}

func fig10(w io.Writer, _ bool) error {
	for _, lib := range []struct {
		name string
		pts  []hardware.MemPoint
		unit string
	}{
		{"SRAM", hardware.SRAMLibrary(), "pJ/bit"},
		{"RF", hardware.RFLibrary(), "pJ/RMW"},
	} {
		// The energy line is fitted within the bank range, matching the cost
		// model; macros above 32 KB follow the banked model (see
		// hardware.SRAMPJPerBit).
		ePts := lib.pts
		if lib.name == "SRAM" {
			ePts = nil
			for _, p := range lib.pts {
				if p.SizeBytes <= hardware.BankBytes {
					ePts = append(ePts, p)
				}
			}
		}
		eFit, err := hardware.Fit(ePts, func(p hardware.MemPoint) float64 { return p.EnergyPJ })
		if err != nil {
			return err
		}
		aFit, err := hardware.Fit(lib.pts, func(p hardware.MemPoint) float64 { return p.AreaMM2 })
		if err != nil {
			return err
		}
		t := report.New(fmt.Sprintf("Fig 10: %s library and linear fit", lib.name),
			"size KB", "area mm2", "fit", "energy "+lib.unit, "fit")
		for _, p := range lib.pts {
			t.Add(fmt.Sprintf("%.2f", float64(p.SizeBytes)/1024),
				fmt.Sprintf("%.4f", p.AreaMM2), fmt.Sprintf("%.4f", aFit.At(p.SizeBytes)),
				fmt.Sprintf("%.4f", p.EnergyPJ), fmt.Sprintf("%.4f", eFit.At(p.SizeBytes)))
		}
		t.Add("slope/KB", fmt.Sprintf("%.5f", aFit.Slope*1024), "", fmt.Sprintf("%.5f", eFit.Slope*1024), "")
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

func resolutions(quick bool) []int {
	if quick {
		return []int{224}
	}
	return []int{224, 512}
}

func (d drivers) fig11(w io.Writer, quick bool) error {
	hw := d.caseHW()
	combos := []string{"(C,C)", "(C,P)", "(C,H)", "(P,C)", "(P,P)", "(P,H)"}
	for _, res := range resolutions(quick) {
		reps, err := workload.RepresentativeLayers(res)
		if err != nil {
			return err
		}
		t := report.New(fmt.Sprintf("Fig 11: best energy (uJ) per spatial combo, %dx%d inputs", res, res),
			append([]string{"layer"}, combos...)...)
		for _, r := range reps {
			best := d.tool.SpatialComboStudy(r.Layer, hw)
			row := []string{r.Role}
			for _, c := range combos {
				if o, ok := best[c]; ok {
					row = append(row, report.UJ(o.Energy.Total()))
				} else {
					row = append(row, "-")
				}
			}
			t.Add(row...)
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

func (d drivers) fig12(w io.Writer, quick bool) error {
	hw := d.caseHW()
	for _, res := range resolutions(quick) {
		reps, err := workload.RepresentativeLayers(res)
		if err != nil {
			return err
		}
		t := report.New(fmt.Sprintf("Fig 12: normalized energy vs Simba, %dx%d inputs", res, res),
			"layer", "Simba uJ", "NN-Baton uJ", "ratio", "Simba D2D uJ", "Baton D2D uJ")
		for _, r := range reps {
			c, err := d.tool.CompareSimbaLayer(r.Layer, hw)
			if err != nil {
				return err
			}
			t.Add(r.Role, report.UJ(c.Simba.Total()), report.UJ(c.NNBaton.Total()),
				fmt.Sprintf("%.2f", c.NNBaton.Total()/c.Simba.Total()),
				report.UJ(c.Simba.D2D), report.UJ(c.NNBaton.D2D))
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

func (d drivers) fig13(w io.Writer, quick bool) error {
	hw := d.caseHW()
	models := []func(int) workload.Model{workload.VGG16, workload.ResNet50, workload.DarkNet19}
	if quick {
		models = models[:1]
	}
	t := report.New("Fig 13: model-level energy, Simba vs NN-Baton (4-chiplet system)",
		"model", "input", "Simba mJ", "NN-Baton mJ", "saving")
	for _, mk := range models {
		for _, res := range resolutions(quick) {
			m := mk(res)
			c, err := d.tool.CompareSimba(m, hw)
			if err != nil {
				return err
			}
			t.Add(m.Name, fmt.Sprintf("%dx%d", res, res),
				fmt.Sprintf("%.2f", c.Simba.Total()/1e9),
				fmt.Sprintf("%.2f", c.NNBaton.Total()/1e9),
				report.Pct(c.SavingsRatio))
		}
	}
	return t.Render(w)
}

func (d drivers) fig14(w io.Writer, quick bool) error {
	space := d.tableII()
	models := workload.Models(224)
	if quick {
		models = models[:1]
	}
	for _, m := range models {
		res, err := d.tool.Granularity(context.Background(), m, space, 2048, 2.0)
		if err != nil {
			return err
		}
		t := report.New(fmt.Sprintf("Fig 14: 2048-MAC implementations, %s", m.Name),
			"chiplets", "best w/o constraint", "uJ", "best w/ 2mm2", "uJ", "ms", "mm2")
		free := res.BestPerChipletCount(false)
		bound := res.BestPerChipletCount(true)
		for _, np := range []int{1, 2, 4, 8} {
			row := []string{fmt.Sprint(np)}
			if p, ok := free[np]; ok {
				row = append(row, p.HW.Tuple(), report.UJ(p.Energy.Total()))
			} else {
				row = append(row, "-", "-")
			}
			if p, ok := bound[np]; ok {
				row = append(row, p.HW.Tuple(), report.UJ(p.Energy.Total()),
					report.MS(p.Seconds), fmt.Sprintf("%.2f", p.ChipletAreaMM2))
			} else {
				row = append(row, "none", "-", "-", "-")
			}
			t.Add(row...)
		}
		if best, ok := res.BestEDP(); ok {
			t.Add("EDP-best", best.HW.Tuple(), report.UJ(best.Energy.Total()), "",
				fmt.Sprintf("EDP %.3g pJ*s", best.EDP()))
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

func (d drivers) fig15(w io.Writer, quick bool) error {
	space := d.tableII()
	benches := []workload.Model{workload.VGG16(512), workload.ResNet50(512), workload.DarkNet19(224)}
	if quick {
		benches = []workload.Model{workload.VGG16(224)}
	}
	for _, m := range benches {
		res, err := d.tool.Explore(context.Background(), m, space, 4096, 3.0)
		if err != nil {
			return err
		}
		t := report.New(fmt.Sprintf("Fig 15: 4096-MAC DSE, %s@%d (swept %d, valid %d, Pareto %d)",
			m.Name, m.Resolution, res.Swept, len(res.Points), len(res.ParetoFront())),
			"chiplets", "valid points", "min EDP pJ*s", "min-EDP tuple", "area mm2")
		byChip := map[int][]dse.Point{}
		for _, p := range res.Points {
			byChip[p.HW.Chiplets] = append(byChip[p.HW.Chiplets], p)
		}
		chips := make([]int, 0, len(byChip))
		for k := range byChip {
			chips = append(chips, k)
		}
		sort.Ints(chips)
		for _, np := range chips {
			pts := byChip[np]
			best := pts[0]
			for _, p := range pts {
				if p.EDP() < best.EDP() {
					best = p
				}
			}
			t.Add(fmt.Sprint(np), fmt.Sprint(len(pts)), fmt.Sprintf("%.3g", best.EDP()),
				best.HW.String(), fmt.Sprintf("%.2f", best.ChipletAreaMM2))
		}
		if res.HasBest {
			t.Add("area-best", res.Best.HW.Tuple(), fmt.Sprintf("%.3g", res.Best.EDP()),
				res.Best.HW.String(), fmt.Sprintf("%.2f", res.Best.ChipletAreaMM2))
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// extFusion evaluates the inter-layer fusion extension on the case-study
// hardware: per-layer optimal mappings with fused intermediates kept in the
// aggregate A-L2 instead of round-tripping DRAM.
func (d drivers) extFusion(w io.Writer, quick bool) error {
	hw := d.caseHW()
	models := []workload.Model{workload.DarkNet19(224), workload.VGG16(224)}
	if quick {
		models = models[:1]
	}
	t := report.New("Extension: inter-layer fusion (Tangram-style, §VII-A)",
		"model", "groups", "fused edges", "saved DRAM MB", "unfused mJ", "fused mJ", "saving")
	for _, m := range models {
		f, err := d.tool.FusionStudy(m, hw)
		if err != nil {
			return err
		}
		before, after := f.Unfused, f.Fused
		t.Add(m.Name, fmt.Sprint(f.Groups), fmt.Sprint(f.FusedEdges),
			fmt.Sprintf("%.2f", float64(f.SavedDRAM)/1e6),
			fmt.Sprintf("%.2f", before.Total()/1e9), fmt.Sprintf("%.2f", after.Total()/1e9),
			report.Pct(1-after.Total()/before.Total()))
	}
	return t.Render(w)
}

// extCost prices the Fig 14 granularity alternatives under a 16 nm-class
// fabrication process, exposing the cost side of the chiplet trade-off.
func extCost(w io.Writer, quick bool) error {
	proc := fab.TSMC16Like()
	t := report.New("Extension: manufacturing cost (Murphy yield + MCM assembly)",
		"system", "die yield", "die $", "silicon $", "assembly $", "total $")
	add := func(n int, area float64) error {
		c, err := proc.PackageCost(n, area)
		if err != nil {
			return err
		}
		t.Add(fmt.Sprintf("%dx%.0fmm2", n, area),
			report.Pct(c.DieYield), fmt.Sprintf("%.2f", c.DieCostUSD),
			fmt.Sprintf("%.2f", c.SiliconUSD), fmt.Sprintf("%.2f", c.AssemblyUSD),
			fmt.Sprintf("%.2f", c.TotalUSD))
		return nil
	}
	// mm²-scale accelerator chiplets (this paper's regime) and the
	// reticle-scale regime where the area wall bites.
	for _, cfg := range []struct {
		n    int
		area float64
	}{{1, 2.6}, {2, 1.6}, {4, 1.1}, {8, 0.85}, {1, 400}, {2, 200}, {4, 100}, {8, 50}} {
		if err := add(cfg.n, cfg.area); err != nil {
			return err
		}
	}
	return t.Render(w)
}

// extLayout quantifies §IV-C's data-layout claim: remote-channel traffic and
// imbalance of package planar patterns under two DRAM layouts.
func extLayout(w io.Writer, _ bool) error {
	l, err := workload.VGG16(512).Layer("conv2")
	if err != nil {
		return err
	}
	t := report.New("Extension: DRAM data layout for the package crossbar ("+l.Name+"@512)",
		"pattern", "layout", "remote fraction", "channel imbalance")
	for _, p := range []mapping.Pattern{{Rows: 2, Cols: 2}, {Rows: 1, Cols: 4}, {Rows: 4, Cols: 1}} {
		for _, lay := range []noc.Layout{noc.RowInterleaved, noc.RegionAligned} {
			prof, err := noc.AnalyzeLayout(l, p, 4, lay)
			if err != nil {
				return err
			}
			t.Add(p.String(), lay.String(),
				report.Pct(float64(prof.RemoteBytes)/float64(prof.TotalBytes)),
				fmt.Sprintf("%.3f", prof.Imbalance))
		}
	}
	return t.Render(w)
}

// extMobileNet maps MobileNetV2 — depthwise separable convolutions via the
// grouped-convolution extension — and reports utilization pressure from the
// thin-channel layers.
func (d drivers) extMobileNet(w io.Writer, _ bool) error {
	m := workload.MobileNetV2(224)
	res, err := d.tool.MapModel(m, d.caseHW())
	if err != nil {
		return err
	}
	var dwE, denseE float64
	var dwMACs, denseMACs int64
	for _, lr := range res.Layers {
		if lr.Layer.G() > 1 {
			dwE += lr.Energy.Total()
			dwMACs += lr.Layer.MACs()
		} else {
			denseE += lr.Energy.Total()
			denseMACs += lr.Layer.MACs()
		}
	}
	t := report.New("Extension: MobileNetV2 on the case-study hardware",
		"class", "layers", "MACs", "energy mJ", "pJ/MAC")
	t.Add("depthwise", fmt.Sprint(countGrouped(res, true)), fmt.Sprint(dwMACs),
		fmt.Sprintf("%.2f", dwE/1e9), fmt.Sprintf("%.2f", dwE/float64(dwMACs)))
	t.Add("dense", fmt.Sprint(countGrouped(res, false)), fmt.Sprint(denseMACs),
		fmt.Sprintf("%.2f", denseE/1e9), fmt.Sprintf("%.2f", denseE/float64(denseMACs)))
	if len(res.Skipped) > 0 {
		t.Add("skipped", fmt.Sprint(len(res.Skipped)))
	}
	return t.Render(w)
}

func countGrouped(res nnbaton.ModelReport, grouped bool) int {
	n := 0
	for _, lr := range res.Layers {
		if (lr.Layer.G() > 1) == grouped {
			n++
		}
	}
	return n
}

// extDegradation reproduces the yield question the paper raises but never
// quantifies: how gracefully does the Table II case-study point degrade as
// fabrication defects accumulate? A seeded yield model generates an
// escalating fault series on the 4-chiplet package; every scenario reroutes
// the ring around dead dies, remaps ResNet-50 onto the surviving envelopes
// and reports energy/runtime/EDP versus failed units. The healthy first row
// is result-identical to the baseline post-design flow.
func (d drivers) extDegradation(w io.Writer, quick bool) error {
	hw := d.caseHW()
	res := 224
	steps := 8
	if quick {
		res = 64
		steps = 4
	}
	m := workload.ResNet50(res)
	series, err := nnbaton.DefaultYield(20260806).Series(hw, steps)
	if err != nil {
		return err
	}
	pts, err := d.tool.DegradationSweep(context.Background(), m, hw, series)
	if err != nil {
		return err
	}
	return report.DegradationCurve(
		fmt.Sprintf("Extension: ResNet-50@%d degradation curve on %s (seed 20260806)", res, hw.Tuple()),
		pts).Render(w)
}

// extTopology compares the interconnect fabrics the Topology interface
// opens up: each zoo model is mapped per-layer-optimally on the case-study
// package under the ring (the paper's fabric), a 2×2-grid mesh and a torus,
// at identical compute and memory budgets. The hop columns expose why the
// results differ: the mesh's row-major rotation cycle re-crosses the grid,
// inflating TotalHop and with it both the physical D2D bytes (energy) and
// the synchronized round gate (runtime). The engine memoizes each fabric
// separately — topology is part of the cache key — so the three rows of one
// model never alias.
func (d drivers) extTopology(w io.Writer, quick bool) error {
	models := []workload.Model{workload.ResNet50(224), workload.VGG16(224), workload.DarkNet19(224)}
	if quick {
		models = []workload.Model{workload.ResNet50(64)}
	}
	// 4 chiplets is the case-study package but its 2×2 grid makes the torus
	// wrap links coincide with the mesh; the 8-chiplet 2×4 grid is the
	// discriminating shape where the torus strictly shortens the rotation.
	chipletCounts := []int{4, 8}
	if quick {
		chipletCounts = []int{4}
	}
	t := report.New("Extension: interconnect topology at the case-study per-chiplet budget",
		"model", "chiplets", "topology", "hop max/total", "D2D scale", "contention",
		"energy mJ", "runtime ms", "EDP pJ*s")
	for _, m := range models {
		for _, chiplets := range chipletCounts {
			for _, kind := range []hardware.Topology{hardware.TopoRing, hardware.TopoMesh, hardware.TopoTorus} {
				hw := d.caseHW()
				hw.Chiplets = chiplets
				hw.Topology = kind
				fabric, err := noc.NewTopology(kind, hw.Chiplets)
				if err != nil {
					return err
				}
				res, err := d.tool.MapModel(m, hw)
				if err != nil {
					return err
				}
				secs := res.Seconds
				num, den := fabric.D2DScale()
				t.Add(m.Name, fmt.Sprint(chiplets), kind.String(),
					fmt.Sprintf("%d/%d", fabric.MaxHop(), fabric.TotalHop()),
					fmt.Sprintf("%d/%d", num, den),
					fmt.Sprint(fabric.LinkContention()),
					fmt.Sprintf("%.2f", res.Energy.Total()/1e9),
					report.MS(secs),
					fmt.Sprintf("%.3g", res.Energy.Total()*secs))
			}
		}
	}
	return t.Render(w)
}
