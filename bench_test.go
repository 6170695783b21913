// Benchmark harness: one testing.B per table and figure of the paper's
// evaluation (see the experiment index in DESIGN.md). Each benchmark
// exercises the code path that regenerates the artifact; the heavyweight
// sweeps (Fig 13–15) run on representative subsets so the whole suite
// completes in minutes — the full-scale runs live in cmd/experiments.
package nnbaton

import (
	"context"
	"io"
	"testing"

	"nnbaton/internal/c3p"
	"nnbaton/internal/dse"
	"nnbaton/internal/energy"
	"nnbaton/internal/engine"
	"nnbaton/internal/functional"
	"nnbaton/internal/halo"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapper"
	"nnbaton/internal/mapping"
	"nnbaton/internal/obs"
	"nnbaton/internal/serve"
	"nnbaton/internal/simba"
	"nnbaton/internal/workload"
)

var benchCM = hardware.MustCostModel()

// BenchmarkTable1EnergyModel prices a traffic record through the Table I
// cost model.
func BenchmarkTable1EnergyModel(b *testing.B) {
	tr := c3p.Traffic{
		DRAMActReads: 1 << 20, DRAMWtReads: 1 << 21, DRAMOutWrites: 1 << 18,
		D2DActs: 1 << 19, AL2Writes: 1 << 20, AL2Reads: 1 << 21,
		AL1Writes: 1 << 20, AL1Reads: 1 << 24, WL1Writes: 1 << 19, WL1Reads: 1 << 22,
		OL2Writes: 1 << 18, OL2Reads: 1 << 18, OL1RMW: 1 << 23, MACs: 1 << 26,
	}
	hw := hardware.CaseStudy()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		br := energy.FromTraffic(tr, hw, benchCM)
		if br.Total() <= 0 {
			b.Fatal("bad breakdown")
		}
	}
}

// BenchmarkTable2SpaceEnum enumerates the Table II compute allocations.
func BenchmarkTable2SpaceEnum(b *testing.B) {
	s := dse.TableII()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(s.ComputeConfigs(2048))+len(s.ComputeConfigs(4096)) == 0 {
			b.Fatal("empty space")
		}
	}
}

// BenchmarkFig7HaloPatterns sweeps tile sizes for the two Fig 7 layers and
// both aspect ratios.
func BenchmarkFig7HaloPatterns(b *testing.B) {
	rn, err := workload.ResNet50(512).Layer("conv1")
	if err != nil {
		b.Fatal(err)
	}
	vgg, err := workload.VGG16(512).Layer("conv3")
	if err != nil {
		b.Fatal(err)
	}
	elems := []int{4, 16, 64, 256, 1024, 4096}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, l := range []workload.Layer{rn, vgg} {
			halo.RedundancySeries(l, elems, 1, 1)
			halo.RedundancySeries(l, elems, 1, 4)
		}
	}
}

// BenchmarkFig8PackagePattern measures the square-vs-rectangle conflict
// analysis over the package-level planar split.
func BenchmarkFig8PackagePattern(b *testing.B) {
	l, err := workload.VGG16(512).Layer("conv1")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, p := range []mapping.Pattern{{Rows: 2, Cols: 2}, {Rows: 1, Cols: 4}} {
			if halo.MaxConflict(l, p) == 0 {
				b.Fatal("no conflicts computed")
			}
			halo.DuplicatedBytes(l, p)
		}
	}
}

// BenchmarkFig10MemoryModel fits the linear memory model from the macro
// libraries.
func BenchmarkFig10MemoryModel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := hardware.NewCostModel(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11SpatialPartitions runs the per-combo mapping study on the
// common representative layer.
func BenchmarkFig11SpatialPartitions(b *testing.B) {
	l, err := workload.ResNet50(224).Layer("res2a_branch2b")
	if err != nil {
		b.Fatal(err)
	}
	hw := hardware.CaseStudy()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(mapper.BestPerSpatialCombo(l, hw, benchCM)) == 0 {
			b.Fatal("no combos")
		}
	}
}

// BenchmarkFig12SimbaLayers compares Simba and NN-Baton on one layer.
func BenchmarkFig12SimbaLayers(b *testing.B) {
	l, err := workload.VGG16(224).Layer("conv12")
	if err != nil {
		b.Fatal(err)
	}
	hw := hardware.CaseStudy()
	g := simba.DefaultGrid(hw)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sr, err := simba.Evaluate(l, hw, g)
		if err != nil {
			b.Fatal(err)
		}
		opt, err := mapper.Search(l, hw, benchCM, mapper.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if opt.Energy.Total() >= energy.FromTraffic(sr.Traffic, hw, benchCM).Total() {
			b.Fatal("NN-Baton lost to Simba")
		}
	}
}

// BenchmarkFig13SimbaModels runs the model-level comparison on AlexNet.
func BenchmarkFig13SimbaModels(b *testing.B) {
	tool := New()
	m := AlexNet(224)
	hw := CaseStudyHardware()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cmp, err := tool.CompareSimba(m, hw)
		if err != nil {
			b.Fatal(err)
		}
		if cmp.SavingsRatio <= 0 {
			b.Fatal("no savings")
		}
	}
}

// benchSpace is a reduced Table II used by the sweep benchmarks.
func benchSpace() dse.Space {
	return dse.Space{
		Vector: []int{8}, Lanes: []int{8, 16}, Cores: []int{2, 4, 8}, Chiplets: []int{1, 2, 4, 8},
		OL1PerLane: []int{144}, AL1: []int{1024, 4096}, WL1: []int{16384, 65536}, AL2: []int{65536},
	}
}

// BenchmarkFig14Granularity runs the chiplet-granularity study on AlexNet
// over a reduced space.
func BenchmarkFig14Granularity(b *testing.B) {
	m := AlexNet(224)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := dse.Granularity(context.Background(), m, benchSpace(), 1024, 2.0, hardware.DefaultProportion(), engine.New(benchCM))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) == 0 {
			b.Fatal("no points")
		}
	}
}

// BenchmarkFig15FullDSE runs the compute x memory sweep on AlexNet over a
// reduced space.
func BenchmarkFig15FullDSE(b *testing.B) {
	m := AlexNet(224)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := dse.Explore(context.Background(), m, benchSpace(), 1024, 3.0, engine.New(benchCM))
		if err != nil {
			b.Fatal(err)
		}
		if res.Swept == 0 {
			b.Fatal("nothing swept")
		}
	}
}

// BenchmarkAblationRotation measures the mapping search with the rotating
// transfer disabled — the ablation called out in DESIGN.md.
func BenchmarkAblationRotation(b *testing.B) {
	l, err := workload.VGG16(224).Layer("conv3")
	if err != nil {
		b.Fatal(err)
	}
	hw := hardware.CaseStudy()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		with, err := mapper.Search(l, hw, benchCM, mapper.Config{})
		if err != nil {
			b.Fatal(err)
		}
		without, err := mapper.Search(l, hw, benchCM, mapper.Config{DisableRotation: true})
		if err != nil {
			b.Fatal(err)
		}
		if with.Energy.Total() > without.Energy.Total() {
			b.Fatal("rotation hurt energy")
		}
	}
}

// BenchmarkC3PAnalyze measures the core analytical engine on a single
// mapping — the unit of work every sweep multiplies.
func BenchmarkC3PAnalyze(b *testing.B) {
	l, err := workload.VGG16(224).Layer("conv5")
	if err != nil {
		b.Fatal(err)
	}
	hw := hardware.CaseStudy()
	m := mapping.Mapping{
		PackageSpatial: mapping.SpatialC, PackageTemporal: mapping.ChannelPriority,
		ChipletSpatial: mapping.SpatialC, ChipletCSplit: 8, ChipletPattern: mapping.Pattern{Rows: 1, Cols: 1},
		ChipletTemporal: mapping.PlanePriority,
		HOt:             14, WOt: 14, COt: 64, HOc: 4, WOc: 4, Rotate: true,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a, err := c3p.Analyze(l, hw, m)
		if err != nil {
			b.Fatal(err)
		}
		if a.Traffic().DRAMActReads == 0 {
			b.Fatal("no traffic")
		}
	}
}

// BenchmarkFunctionalExecution measures the bit-exact mapped execution used
// to validate mapping semantics.
func BenchmarkFunctionalExecution(b *testing.B) {
	l := workload.Layer{Model: "b", Name: "conv", HO: 20, WO: 20, CO: 64, CI: 16,
		R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	hw := hardware.CaseStudy()
	opt, err := mapper.Search(l, hw, benchCM, mapper.Config{})
	if err != nil {
		b.Fatal(err)
	}
	in, w := functional.Fill(l, 42)
	ref := functional.Reference(l, in, w)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		got, err := functional.ExecuteMapped(l, hw, opt.Analysis.Map, in, w)
		if err != nil {
			b.Fatal(err)
		}
		if functional.Equal(ref, got) != nil {
			b.Fatal("functional mismatch")
		}
	}
}

// benchSearchLayer is the heavy ResNet-50 conv the single-layer search
// benchmarks run on — the same representative layer as the Fig 11 study.
func benchSearchLayer(b *testing.B) workload.Layer {
	l, err := workload.ResNet50(224).Layer("res2a_branch2b")
	if err != nil {
		b.Fatal(err)
	}
	return l
}

// BenchmarkSearchLayerExhaustive measures the retained exhaustive reference
// search on the heavy conv: every candidate pays the full
// analyze→traffic→energy→simulate pipeline.
func BenchmarkSearchLayerExhaustive(b *testing.B) {
	l := benchSearchLayer(b)
	hw := hardware.CaseStudy()
	cfg := mapper.Config{KeepTop: 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(mapper.SearchExhaustive(l, hw, benchCM, cfg)) == 0 {
			b.Fatal("no options")
		}
	}
}

// BenchmarkSearchLayerPruned measures the branch-and-bound search on the same
// layer and config — result-identical to the exhaustive reference (pinned by
// TestSearchAllMatchesExhaustiveZoo) but with bound and stage pruning plus
// subtree parallelism. Extra metrics report the candidate funnel, with the
// feasible cells the group scan materialized and the groups it expanded.
func BenchmarkSearchLayerPruned(b *testing.B) {
	l := benchSearchLayer(b)
	hw := hardware.CaseStudy()
	ctr := &mapper.Counters{
		Generated:      &obs.Counter{},
		BoundPruned:    &obs.Counter{},
		StagePruned:    &obs.Counter{},
		Evaluated:      &obs.Counter{},
		FloorsComputed: &obs.Counter{},
		HeapPopped:     &obs.Counter{},
	}
	cfg := mapper.Config{KeepTop: 8, Counters: ctr}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(mapper.SearchAll(l, hw, benchCM, cfg)) == 0 {
			b.Fatal("no options")
		}
	}
	n := float64(b.N)
	b.ReportMetric(float64(ctr.Generated.Value())/n, "candidates/op")
	b.ReportMetric(float64(ctr.BoundPruned.Value()+ctr.StagePruned.Value())/n, "pruned/op")
	b.ReportMetric(float64(ctr.Evaluated.Value())/n, "evaluated/op")
	b.ReportMetric(float64(ctr.FloorsComputed.Value())/n, "cells/op")
	b.ReportMetric(float64(ctr.HeapPopped.Value())/n, "groups/op")
}

// BenchmarkSearchLayerMeshPruned is the branch-and-bound search on the same
// layer and config with the package fabric switched to the 2D mesh: the
// admissible floor scales its D2D term by the mesh's TotalHop/Chiplets
// rational, so this tracks whether the generic topology path keeps the
// pruned search competitive with the ring's closed forms (benchjson derives
// the mesh-vs-ring ratio from this pair).
func BenchmarkSearchLayerMeshPruned(b *testing.B) {
	l := benchSearchLayer(b)
	hw := hardware.CaseStudy()
	hw.Topology = hardware.TopoMesh
	cfg := mapper.Config{KeepTop: 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(mapper.SearchAll(l, hw, benchCM, cfg)) == 0 {
			b.Fatal("no options")
		}
	}
}

// BenchmarkSearchLayerPrunedSerial is the pruned search pinned to one worker,
// isolating the bound/staging win from the parallel speedup.
func BenchmarkSearchLayerPrunedSerial(b *testing.B) {
	l := benchSearchLayer(b)
	hw := hardware.CaseStudy()
	cfg := mapper.Config{KeepTop: 8, Workers: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(mapper.SearchAll(l, hw, benchCM, cfg)) == 0 {
			b.Fatal("no options")
		}
	}
}

// BenchmarkSearchLayerStarved is the pruned search on the same layer at a
// 4096-MAC allocation (8 chiplets × 8 cores × 8 lanes × 8-wide vectors)
// with every Table II memory axis at its minimum — the explore flow's
// starved anchor. Its W-L1 still holds the weight chunk, but a rotating P
// split's per-hop chunk exceeds the merged W-L1 pool on most chiplet tiles
// and a rotating C split's input share exceeds the A-L2 on most planar
// pairs; the scan drops those tiles and pairs before it bounds any cell.
func BenchmarkSearchLayerStarved(b *testing.B) {
	l := benchSearchLayer(b)
	hw := hardware.Config{
		Chiplets: 8, Cores: 8, Lanes: 8, Vector: 8,
		OL1Bytes: 48 * 8, AL1Bytes: 1 << 10, WL1Bytes: 2 << 10,
		AL2Bytes: 32 << 10, OL2Bytes: 16 << 10,
	}
	cfg := mapper.Config{KeepTop: 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(mapper.SearchAll(l, hw, benchCM, cfg)) == 0 {
			b.Fatal("no options")
		}
	}
}

// BenchmarkEngineEvalModelResNet50Cold measures a full ResNet-50 search on a
// fresh engine: shape deduplication applies within the model (unique shapes
// only), but nothing is pre-cached.
func BenchmarkEngineEvalModelResNet50Cold(b *testing.B) {
	m := ResNet50(224)
	hw := CaseStudyHardware()
	b.ReportAllocs()
	var searches int64
	for i := 0; i < b.N; i++ {
		eng := engine.New(benchCM)
		res, err := eng.EvalModel(context.Background(), m, hw, mapper.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Complete() {
			b.Fatal("incomplete mapping")
		}
		searches = eng.Stats().Searches
	}
	b.ReportMetric(float64(searches), "searches/op")
}

// BenchmarkEngineEvalModelResNet50Warm measures the same evaluation served
// entirely from the memoized cache — the steady state of a long-lived
// serving process.
func BenchmarkEngineEvalModelResNet50Warm(b *testing.B) {
	m := ResNet50(224)
	hw := CaseStudyHardware()
	eng := engine.New(benchCM)
	if _, err := eng.EvalModel(context.Background(), m, hw, mapper.Config{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := eng.EvalModel(context.Background(), m, hw, mapper.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Complete() {
			b.Fatal("incomplete mapping")
		}
	}
}

// BenchmarkEngineEvalModelResNet50WarmObserved is the warm-cache evaluation
// with a live metrics registry and progress sink attached. Compare against
// BenchmarkEngineEvalModelResNet50Warm (the nil-sink fast path) to bound the
// cost of enabling observability; the nil path itself must not regress.
func BenchmarkEngineEvalModelResNet50WarmObserved(b *testing.B) {
	m := ResNet50(224)
	hw := CaseStudyHardware()
	eng := engine.NewFromConfig(benchCM, engine.Config{Registry: obs.NewRegistry(), Sink: obs.NewWriterSink(io.Discard)})
	if _, err := eng.EvalModel(context.Background(), m, hw, mapper.Config{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := eng.EvalModel(context.Background(), m, hw, mapper.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Complete() {
			b.Fatal("incomplete mapping")
		}
	}
}

// BenchmarkServeReferenceTrace replays the reference serving trace against a
// pre-built healthy oracle: the discrete-event loop alone, the steady state
// of a long-lived serving process whose engine cache is warm. The extra
// metric commits the simulated serving throughput (requests per second of
// span) to BENCH_mapper.json — it is deterministic, so drift means the DES
// or the mapper changed, not the machine.
func BenchmarkServeReferenceTrace(b *testing.B) {
	eng := engine.New(benchCM)
	hw := CaseStudyHardware()
	models := []workload.Model{AlexNet(224), DarkNet19(224)}
	oracle, err := serve.BuildOracle(context.Background(), eng, models, hw, hardware.FaultMask{}, mapper.Config{})
	if err != nil {
		b.Fatal(err)
	}
	tr := serve.ReferenceTrace(200, 2500, "alexnet", "darknet19")
	cfg := serve.Config{MaxBatch: 8, WindowUS: 500, Alpha: 0.8}
	b.ResetTimer()
	b.ReportAllocs()
	var rps float64
	for i := 0; i < b.N; i++ {
		res, err := serve.Simulate(tr, oracle, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Requests != 200 {
			b.Fatal("lost requests")
		}
		rps = res.ThroughputRPS
	}
	b.ReportMetric(rps, "req/s")
}

// benchSweepHWs is the hardware neighborhood BenchmarkSweep walks: the
// case-study point with its core count and A-L1 allocation varied, the
// adjacency pattern a Fig 14/15 sweep produces.
func benchSweepHWs() []hardware.Config {
	base := hardware.CaseStudy()
	var hws []hardware.Config
	for _, cores := range []int{base.Cores / 2, base.Cores, base.Cores * 2} {
		for _, al1 := range []int{base.AL1Bytes, base.AL1Bytes * 2} {
			hw := base
			hw.Cores = cores
			hw.AL1Bytes = al1
			hws = append(hws, hw)
		}
	}
	return hws
}

// benchSweepModel is the workload BenchmarkSweep maps at every point: the
// heavy ResNet-50 convs where the mapping search dominates the sweep cost
// (light layers would bury the search under fixed per-point overhead).
func benchSweepModel(b *testing.B) workload.Model {
	rn := ResNet50(224)
	m := workload.Model{Name: "resnet50-heavy", Resolution: 224}
	for _, name := range []string{"res2a_branch2b", "res3a_branch2b", "res4a_branch2b"} {
		l, err := rn.Layer(name)
		if err != nil {
			b.Fatal(err)
		}
		m.Layers = append(m.Layers, l)
	}
	return m
}

// BenchmarkSweep runs one end-to-end EvalSweep of the reduced hardware
// neighborhood on a fresh evaluator per iteration, so the memo cache never
// spans iterations.
func BenchmarkSweep(b *testing.B) {
	m := benchSweepModel(b)
	hws := benchSweepHWs()
	models := []workload.Model{m}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := engine.New(benchCM)
		pts, err := eng.EvalSweep(context.Background(), models, hws, mapper.Config{})
		if err != nil {
			b.Fatal(err)
		}
		for _, pt := range pts {
			if pt.Err != nil {
				b.Fatal(pt.Err)
			}
		}
	}
}

// BenchmarkEngineGranularityCold runs the reduced Fig 14 sweep on a fresh
// engine per iteration (the pre-refactor behavior: every sweep pays for its
// own searches).
func BenchmarkEngineGranularityCold(b *testing.B) {
	m := AlexNet(224)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := dse.Granularity(context.Background(), m, benchSpace(), 1024, 2.0,
			hardware.DefaultProportion(), engine.New(benchCM))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) == 0 {
			b.Fatal("no points")
		}
	}
}

// BenchmarkEngineGranularityWarm reuses one engine across iterations, so the
// sweep is served from the shape-deduplicated cache.
func BenchmarkEngineGranularityWarm(b *testing.B) {
	m := AlexNet(224)
	eng := engine.New(benchCM)
	if _, err := dse.Granularity(context.Background(), m, benchSpace(), 1024, 2.0,
		hardware.DefaultProportion(), eng); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := dse.Granularity(context.Background(), m, benchSpace(), 1024, 2.0,
			hardware.DefaultProportion(), eng)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) == 0 {
			b.Fatal("no points")
		}
	}
}
