package dse

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"nnbaton/internal/c3p"
	"nnbaton/internal/energy"
	"nnbaton/internal/engine"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapper"
	"nnbaton/internal/mapping"
	"nnbaton/internal/noc"
	"nnbaton/internal/sim"
	"nnbaton/internal/store"
	"nnbaton/internal/strategy"
	"nnbaton/internal/workload"
)

// referencePrice prices one mapping straight from the primitives, as the
// model defines it: energy charges the physical D2D bytes (the logical
// record scaled by the topology's hop ratio), and the simulator runs on the
// logical record over the fault-masked fabric.
func referencePrice(t *testing.T, l workload.Layer, hw hardware.Config, mask hardware.FaultMask,
	m mapping.Mapping, cm *hardware.CostModel) (energy.Breakdown, int64) {
	t.Helper()
	a, err := c3p.Analyze(l, hw, m)
	if err != nil {
		t.Fatal(err)
	}
	topo, xbar, err := noc.NewInterconnect(hw, mask)
	if err != nil {
		t.Fatal(err)
	}
	num, den := topo.D2DScale()
	tr := a.Traffic()
	res, err := sim.SimulateTrafficOn(topo, xbar, a, tr)
	if err != nil {
		t.Fatal(err)
	}
	return energy.FromTraffic(tr.ScaleD2D(num, den), hw, cm), res.Cycles
}

// TestPricingKernelEquivalence holds every pricing entry point to the same
// (energy breakdown, cycles) for the same (layer, hardware, mapping): the
// best-first winner, the exhaustive reference, the persistent-cache
// re-derivation, the fabric's rate card, the explore memory-point
// re-pricing at the anchor's own buffer sizes, the search's runner-up and
// strategy-file repricing — on ring, mesh and torus, and on a degraded
// ring. Mesh and torus scale D2D energy by their hop ratio, so a path that
// skips the scale reports ring energy there.
func TestPricingKernelEquivalence(t *testing.T) {
	cm := hardware.MustCostModel()
	ctx := context.Background()
	base := hardware.CaseStudy()
	base.Chiplets, base.Cores = 8, 4
	degraded := base
	mask, err := hardware.ParseFaultMask("chiplet2", degraded)
	if err != nil {
		t.Fatal(err)
	}
	fabric, err := degraded.Degrade(mask)
	if err != nil {
		t.Fatal(err)
	}
	env := fabric.Envelopes()[0]
	type fabricCase struct {
		name string
		hw   hardware.Config
		mask hardware.FaultMask
	}
	var cases []fabricCase
	for _, kind := range []hardware.Topology{hardware.TopoRing, hardware.TopoMesh, hardware.TopoTorus} {
		hw := base
		hw.Topology = kind
		cases = append(cases, fabricCase{kind.String(), hw, hardware.FaultMask{}})
	}
	cases = append(cases, fabricCase{"ring/" + mask.String(), env.HW, env.Mask})

	model, err := workload.Load("resnet50", 224)
	if err != nil {
		t.Fatal(err)
	}
	var layers []workload.Layer
	for _, name := range []string{"res4a_branch2b", "res4a_branch2c"} {
		l, err := model.Layer(name)
		if err != nil {
			t.Fatal(err)
		}
		layers = append(layers, l)
	}

	for _, fc := range cases {
		for _, l := range layers {
			name := fmt.Sprintf("%s %s on %s", fc.name, l.Name, fc.hw.Tuple())
			hw, healthy := fc.hw, fc.mask.IsZero()
			check := func(path string, m mapping.Mapping, br energy.Breakdown, cycles int64) {
				t.Helper()
				wantBr, wantCycles := referencePrice(t, l, hw, fc.mask, m, cm)
				if br != wantBr || cycles != wantCycles {
					t.Errorf("%s: %s prices %v, %d cycles; want %v, %d cycles",
						name, path, br, cycles, wantBr, wantCycles)
				}
			}
			cfg := mapper.Config{Fault: fc.mask}

			opts := mapper.SearchAll(l, hw, cm, mapper.Config{Fault: fc.mask, KeepTop: 1})
			if len(opts) == 0 {
				t.Fatalf("%s: no mapping", name)
			}
			win := opts[0]
			check("SearchAll", win.Analysis.Map, win.Energy, win.Cycles)
			if ex := mapper.SearchExhaustive(l, hw, cm, mapper.Config{Fault: fc.mask, KeepTop: 1}); len(ex) == 0 ||
				ex[0].Analysis.Map != win.Analysis.Map || ex[0].Energy != win.Energy || ex[0].Cycles != win.Cycles {
				t.Errorf("%s: SearchExhaustive disagrees with SearchAll", name)
			}

			// Persistent cache: a second evaluator re-derives the stored
			// winners from disk.
			st, err := store.Open(t.TempDir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			cold := engine.NewFromConfig(cm, engine.Config{Cache: st})
			if _, err := cold.SearchAll(ctx, l, hw, cfg); err != nil {
				t.Fatal(err)
			}
			warm := engine.NewFromConfig(cm, engine.Config{Cache: st})
			disk, err := warm.SearchAll(ctx, l, hw, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if s := warm.Stats(); s.DiskHits != 1 || s.DiskCorrupt != 0 {
				t.Fatalf("%s: disk cache %d hits, %d corrupt; want one clean hit", name, s.DiskHits, s.DiskCorrupt)
			}
			check("disk re-derivation", disk[0].Analysis.Map, disk[0].Energy, disk[0].Cycles)
			st.Close()

			// Explore: the winner alone in the pool, re-priced at its own
			// anchor's buffer sizes.
			fab, err := mapper.NewFabric(hw, fc.mask, cm)
			if err != nil {
				t.Fatal(err)
			}
			// The fabric's rate card prices as Fabric.Energy at the anchor's
			// buffer sizes and at a second buffer configuration without an
			// O-L2 size, and its total is the breakdown's bit for bit.
			tr := win.Analysis.Traffic()
			other := hw
			other.OL1Bytes, other.AL2Bytes, other.OL2Bytes = 2*hw.OL1Bytes, 2*hw.AL2Bytes, 0
			for _, bufs := range []hardware.Config{hw, other} {
				card := fab.Card(&bufs)
				br := card.Price(&tr)
				if want := fab.Energy(&tr, &bufs); br != want {
					t.Errorf("%s: card at %s prices %v; Fabric.Energy %v", name, bufs.Tuple(), br, want)
				}
				if got := card.Total(&tr); math.Float64bits(got) != math.Float64bits(br.Total()) {
					t.Errorf("%s: card total %v at %s; breakdown total %v", name, got, bufs.Tuple(), br.Total())
				}
			}
			card := fab.Card(&hw)
			check("Fabric.Card", win.Analysis.Map, card.Price(&tr), win.Cycles)

			one := workload.Model{Name: "one", Layers: []workload.Layer{l}}
			pool := [][]*c3p.Analysis{{win.Analysis}}
			g := grid{al1: []int{hw.AL1Bytes}, wl1: []int{hw.WL1Bytes}, al2: []int{hw.AL2Bytes}, ol1: []int{hw.OL1Bytes}}
			rp := newRepricer(one, hw, pool, g, 0, fab, cm)
			rp.priceCell(0, 0, 0)
			pts := rp.points()
			rp.release()
			pt, ok := Point{}, len(pts) == 1
			if ok {
				pt = pts[0]
			}
			if !ok {
				t.Fatalf("%s: explore could not price the winner at its anchor", name)
			}
			if pt.Energy != win.Energy || pt.Seconds != hardware.Seconds(win.Cycles) {
				t.Errorf("%s: explore prices %v, %g s; the search %v, %g s",
					name, pt.Energy, pt.Seconds, win.Energy, hardware.Seconds(win.Cycles))
			}

			if !healthy {
				continue // strategy files describe healthy fabrics only
			}
			top2 := mapper.SearchAll(l, hw, cm, mapper.Config{KeepTop: 2})
			if len(top2) < 2 || top2[0].Analysis.Map == top2[1].Analysis.Map {
				t.Fatalf("%s: KeepTop 2 search gave %d distinct options, want 2", name, len(top2))
			}
			second := top2[1]
			check("SearchAll runner-up", second.Analysis.Map, second.Energy, second.Cycles)

			var buf bytes.Buffer
			f := strategy.File{Model: "one", Input: 224, Hardware: hw, Layers: []strategy.LayerStrategy{
				{Layer: l, Mapping: win.Analysis.Map, EnergyPJ: win.Energy.Total(), Cycles: win.Cycles},
				{Layer: l, Mapping: second.Analysis.Map, EnergyPJ: second.Energy.Total(), Cycles: second.Cycles},
			}}
			if err := strategy.Write(&buf, f); err != nil {
				t.Fatal(err)
			}
			back, err := strategy.Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := strategy.Reprice(back, cm)
			if err != nil {
				t.Fatal(err)
			}
			for i, o := range rep {
				check(fmt.Sprintf("strategy.Reprice layer %d", i), back.Layers[i].Mapping, o.Energy, o.Cycles)
			}
		}
	}
}

// TestGridKernelMatchesTrafficAt holds explore's grid kernel — candidate
// totals priced from per-axis tables, winners' breakdowns assembled from
// them — to pricing the TrafficAt record with the cell's rate card, with
// ==, at every cell of Table II's axes and at capacities on both sides of
// each of the candidate's critical capacities. The candidates are searched
// ResNet-50 mappings on ring, mesh and torus; mesh and torus scale
// die-to-die bytes by a ratio other than 1, and some candidates rotate, so
// the scaled die-to-die sums are exercised. A cell's candidate must fit
// exactly where Fits says it does.
func TestGridKernelMatchesTrafficAt(t *testing.T) {
	model, err := workload.Load("resnet50", 224)
	if err != nil {
		t.Fatal(err)
	}
	space := TableII()
	base := hardware.CaseStudy()
	base.Chiplets, base.Cores = 8, 4
	scaledD2D := 0 // cells whose physical die-to-die bytes differ from the logical ones
	for _, kind := range []hardware.Topology{hardware.TopoRing, hardware.TopoMesh, hardware.TopoTorus} {
		hw := base
		hw.Topology = kind
		fab, err := mapper.NewFabric(hw, hardware.FaultMask{}, cm)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"res2a_branch2b", "res4a_branch2b"} {
			l, err := model.Layer(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, opt := range mapper.SearchAll(l, hw, cm, mapper.Config{KeepTop: 4}) {
				a := opt.Analysis
				g := kernelGrid(space, hw, a)
				one := workload.Model{Name: "one", Layers: []workload.Layer{l}}
				rp := newRepricer(one, hw, [][]*c3p.Analysis{{a}}, g, 0, fab, cm)
				needs := a.Map.BufferNeeds(&l, &hw)
				for i, al1 := range g.al1 {
					for j, wl1 := range g.wl1 {
						for x, al2 := range g.al2 {
							rp.priceCell(i, j, x)
							tr := a.TrafficAt(al1, wl1, al2)
							for k, ol1 := range g.ol1 {
								cell := rp.cellHW(i, j, x)
								cell.OL1Bytes = ol1
								card := fab.Card(&cell)
								if k == 0 && card.Levels(&tr).D2D != tr.D2DBytes() {
									scaledD2D++
								}
								w := rp.win[k]
								if fits := needs.Fits(&cell); (w.c >= 0) != fits {
									t.Fatalf("%v %s %s at %s: kernel fits %v, Fits %v",
										kind, name, a.Map.String(), cell.String(), w.c >= 0, fits)
								}
								if w.c < 0 {
									continue
								}
								want, wantBr := card.Total(&tr), card.Price(&tr)
								if w.total != want || w.br != wantBr {
									t.Fatalf("%v %s %s at %s: kernel total %v, breakdown %v; TrafficAt prices %v, %v",
										kind, name, a.Map.String(), cell.String(), w.total, w.br, want, wantBr)
								}
								if cycles, err := fab.Cycles(a, tr); err != nil || w.cycles != cycles {
									t.Fatalf("%v %s at %s: kernel cycles %d; simulator %d (%v)",
										kind, name, cell.String(), w.cycles, cycles, err)
								}
							}
						}
					}
				}
				rp.release()
			}
		}
	}
	if scaledD2D == 0 {
		t.Fatal("no checked cell moves die-to-die bytes on a scaled fabric")
	}
}

// kernelGrid returns Table II's memory axes on hw joined by the sizes on
// both sides of each of a's critical capacities and buffer needs: the
// A-L1 and A-L2 thresholds, the W-L1 pool thresholds per core, and the
// O-L1 need.
func kernelGrid(space Space, hw hardware.Config, a *c3p.Analysis) grid {
	sides := func(sizes []int, caps ...int64) []int {
		out := slices.Clone(sizes)
		for _, c := range caps {
			if c > 1 {
				out = append(out, int(c)-1, int(c))
			}
		}
		slices.Sort(out)
		return slices.Compact(out)
	}
	caps := func(f c3p.FillAnalysis, per int64) []int64 {
		var out []int64
		for _, th := range f.Thresholds {
			out = append(out, (th.Capacity+per-1)/per)
		}
		return out
	}
	needs := a.Map.BufferNeeds(&a.Layer, &hw)
	g := grid{
		al1: sides(space.AL1, append(caps(a.AL1, 1), needs.AL1)...),
		wl1: sides(space.WL1, append(caps(a.WL1, int64(a.Shape.WeightShareCores)), needs.WL1)...),
		al2: sides(space.AL2, append(caps(a.AL2, 1), needs.AL2)...),
	}
	var ol1 []int
	for _, perLane := range space.OL1PerLane {
		ol1 = append(ol1, perLane*hw.Lanes)
	}
	g.ol1 = sides(ol1, needs.OL1)
	return g
}
