// Package nnbaton is a Go implementation of NN-Baton (Tan et al., ISCA
// 2021): an analytical framework and automatic tool for DNN workload
// orchestration and chiplet-granularity exploration on multichip
// accelerators.
//
// The tool models a three-level accelerator (package → chiplet → core),
// describes layer mappings with spatial/temporal/rotating primitives,
// evaluates memory traffic with the C³P (Critical-Capacity
// Critical-Position) methodology, and offers two flows:
//
//   - the post-design flow maps a DNN onto a fixed hardware configuration
//     with the per-layer optimal strategy (MapLayer, MapModel);
//   - the pre-design flow explores the hardware space of Table II under MAC
//     and area budgets to pick the chiplet granularity and the memory
//     allocation (Granularity, Explore).
//
// Quickstart:
//
//	tool := nnbaton.New()
//	rep, err := tool.MapModel(nnbaton.VGG16(224), nnbaton.CaseStudyHardware())
//	if err != nil { ... }
//	fmt.Printf("energy %.2f mJ in %.2f ms\n", rep.Energy.Total()/1e9, rep.Seconds*1e3)
package nnbaton

import (
	"context"
	"fmt"
	"io"

	"nnbaton/internal/c3p"
	"nnbaton/internal/ckpt"
	"nnbaton/internal/dse"
	"nnbaton/internal/energy"
	"nnbaton/internal/engine"
	"nnbaton/internal/fab"
	"nnbaton/internal/faults"
	"nnbaton/internal/hardware"
	"nnbaton/internal/lease"
	"nnbaton/internal/mapper"
	"nnbaton/internal/mapping"
	"nnbaton/internal/pipeline"
	"nnbaton/internal/serve"
	"nnbaton/internal/simba"
	"nnbaton/internal/workload"
)

// Re-exported core types. See the internal packages for full method
// documentation.
type (
	// Layer is one convolution (or point-wise-reorganized FC) workload.
	Layer = workload.Layer
	// Model is an ordered list of layers at one input resolution.
	Model = workload.Model
	// Hardware is a three-level accelerator configuration (Table II point).
	Hardware = hardware.Config
	// Breakdown is a per-component energy breakdown in pJ.
	Breakdown = energy.Breakdown
	// Traffic is a per-level memory access record.
	Traffic = c3p.Traffic
	// Space is the Table II exploration space.
	Space = dse.Space
	// DesignPoint is one evaluated hardware implementation.
	DesignPoint = dse.Point
	// LayerMapping is the full mapping description of one layer (spatial,
	// temporal and rotating primitives plus tile sizes).
	LayerMapping = mapping.Mapping
	// Process is a fabrication cost structure for the manufacturing-cost
	// extension (internal/fab).
	Process = fab.Process
	// CostedPoint pairs a design point with its manufacturing cost.
	CostedPoint = dse.CostedPoint
	// Topology selects the on-package interconnect fabric (ring, mesh,
	// torus); the zero value is the paper's directional ring.
	Topology = hardware.Topology
)

// Interconnect topology constants (Hardware.Topology / Space.Topology).
const (
	// TopoRing is the paper's directional ring (the default).
	TopoRing = hardware.TopoRing
	// TopoMesh is a 2D mesh over a near-square chiplet grid.
	TopoMesh = hardware.TopoMesh
	// TopoTorus is the mesh with wraparound links.
	TopoTorus = hardware.TopoTorus
)

// DefaultProcess returns the 16 nm-class fabrication cost structure used by
// the manufacturing-cost extension.
func DefaultProcess() Process { return fab.TSMC16Like() }

// Model zoo constructors (§V-B benchmarks).
var (
	// AlexNet builds AlexNet at a given input resolution.
	AlexNet = workload.AlexNet
	// VGG16 builds VGG-16 at a given input resolution.
	VGG16 = workload.VGG16
	// ResNet50 builds ResNet-50 at a given input resolution.
	ResNet50 = workload.ResNet50
	// DarkNet19 builds DarkNet-19 at a given input resolution.
	DarkNet19 = workload.DarkNet19
	// MobileNetV2 builds MobileNetV2 (grouped-convolution extension) at a
	// given input resolution.
	MobileNetV2 = workload.MobileNetV2
	// YOLOv2 builds the YOLOv2 detection network (DarkNet-19 backbone +
	// detection head) — the detection workload behind the paper's 512×512
	// input resolution.
	YOLOv2 = workload.YOLOv2
	// ParseModel reads a custom model from the text description format of
	// internal/workload.Parse.
	ParseModel = workload.Parse
)

// CaseStudyHardware returns the §VI-A configuration: 4 chiplets, 8 cores,
// 8 lanes of 8-size vector MAC, 1.5 KB O-L1, 800 B A-L1, 18 KB W-L1,
// 64 KB A-L2.
func CaseStudyHardware() Hardware { return hardware.CaseStudy() }

// TableIISpace returns the full Table II design space.
func TableIISpace() Space { return dse.TableII() }

// EngineStats is a snapshot of the evaluation engine's search-cache and
// resilience counters (lookups, actual searches, hits, coalesced in-flight
// waits, recovered panics, retries, timeouts, replayed points).
type EngineStats = engine.Stats

// EngineConfig is the evaluation engine's concurrency and resilience policy:
// worker bound, per-point deadline, bounded retry with backoff, observation
// hooks and the checkpoint journal. The zero value reproduces the default
// behavior (panic isolation is always on).
type EngineConfig = engine.Config

// MergeStats reports what a checkpoint merge folded together.
type MergeStats = ckpt.MergeStats

// MergeCheckpoints folds N worker journals into one canonical (key-sorted,
// deduplicated, meta-stripped) journal stream on w. Divergent duplicate
// records or journals from different studies are refused. Merging the shard
// journals of a sharded sweep yields bytes identical to merging the
// single-process journal of the same study.
func MergeCheckpoints(w io.Writer, paths ...string) (MergeStats, error) {
	return ckpt.MergeFiles(w, paths...)
}

// Sharded-sweep re-exports (internal/lease, internal/dse): N-worker Fig 15
// studies over a shared filesystem with worker-death recovery.
type (
	// LeaseManager claims, renews and completes one worker's shard leases.
	LeaseManager = lease.Manager
	// LeaseOptions tunes lease TTL and claim retry/backoff.
	LeaseOptions = lease.Options
	// ShardedResult reports the shards one worker completed or abandoned.
	ShardedResult = dse.ShardedResult
)

// NewLeaseManager builds a worker's lease manager over a shared directory.
// study is the StudySignature every worker must agree on; owner is a
// diagnostic worker identity (hostname, pid, -worker flag).
func NewLeaseManager(dir, study, owner string, opts LeaseOptions) (*LeaseManager, error) {
	return lease.New(dir, study, owner, opts)
}

// StudySignature canonically identifies one sharded exploration; workers
// sharing a lease directory must present the same signature, and shard
// journals carry it so MergeCheckpoints refuses foreign journals.
func StudySignature(m Model, space Space, totalMACs int, areaLimitMM2 float64, shards int) string {
	return dse.StudySignature(m, space, totalMACs, areaLimitMM2, shards)
}

// ExploreSharded runs this process's worker loop of an N-worker sharded
// exploration: claim a shard lease, evaluate its compute range (journaling
// to this worker's checkpoint), heartbeat, mark done, repeat; reclaim the
// expired shards of dead peers. Returns when every shard of the study is
// done. Merge the worker journals with MergeCheckpoints.
func (b *Baton) ExploreSharded(ctx context.Context, m Model, space Space, totalMACs int,
	areaLimitMM2 float64, mgr *LeaseManager, shards int) (ShardedResult, error) {
	return dse.RunShardedExplore(ctx, m, space, totalMACs, areaLimitMM2, b.eng, mgr, shards)
}

// Baton is the NN-Baton automatic tool (Fig 9): it bundles the C³P
// evaluation engine with the fitted 16 nm cost model. All flows share one
// evaluation engine, so layer searches are memoized on layer shape for the
// lifetime of the tool — mapping ResNet-50 and then exploring hardware for
// it reuses every search the shapes have in common.
type Baton struct {
	cm  *hardware.CostModel
	eng *engine.Evaluator
}

// New builds the tool with the default 16 nm cost model.
func New() *Baton { return NewWithConfig(EngineConfig{}) }

// NewWithConfig builds the tool under a full engine policy: worker bound,
// per-point deadline, bounded retry with backoff, observation hooks and the
// checkpoint journal (see EngineConfig).
func NewWithConfig(cfg EngineConfig) *Baton {
	cm := hardware.MustCostModel()
	return &Baton{cm: cm, eng: engine.NewFromConfig(cm, cfg)}
}

// EngineStats snapshots the shared evaluation engine's cache counters.
func (b *Baton) EngineStats() EngineStats { return b.eng.Stats() }

// LayerReport is the post-design result for one layer.
type LayerReport struct {
	Layer    Layer
	Mapping  string       // human-readable mapping strategy
	Strategy LayerMapping // machine-readable mapping (see internal/strategy)
	Energy   Breakdown
	Traffic  Traffic
	Seconds  float64
	Cycles   int64
}

// layerReport renders one priced mapping option.
func layerReport(o mapper.Option) LayerReport {
	return LayerReport{
		Layer:    o.Analysis.Layer,
		Mapping:  o.Analysis.Map.String(),
		Strategy: o.Analysis.Map,
		Energy:   o.Energy,
		Traffic:  o.Analysis.Traffic(),
		Seconds:  hardware.Seconds(o.Cycles),
		Cycles:   o.Cycles,
	}
}

// ModelReport aggregates the post-design flow over a model.
type ModelReport struct {
	Model   string
	Layers  []LayerReport
	Energy  Breakdown
	Seconds float64
	Skipped []string
}

// MapLayer runs the post-design flow for one layer: the exhaustive search
// over spatial/temporal primitives, patterns and tile sizes, returning the
// minimum-energy mapping. Served from the engine cache when the layer shape
// has been searched before on the same hardware.
func (b *Baton) MapLayer(l Layer, hw Hardware) (LayerReport, error) {
	opt, err := b.eng.EvalLayer(context.Background(), l, hw, mapper.Config{})
	if err != nil {
		return LayerReport{}, err
	}
	return layerReport(opt), nil
}

// MapModel runs the post-design flow for every layer of a model with the
// per-layer optimal strategy; the per-layer searches run in parallel on the
// engine.
func (b *Baton) MapModel(m Model, hw Hardware) (ModelReport, error) {
	res, err := b.eng.EvalModel(context.Background(), m, hw, mapper.Config{})
	if err != nil {
		return ModelReport{}, err
	}
	rep := ModelReport{Model: m.Name, Energy: res.Energy,
		Seconds: hardware.Seconds(res.Cycles), Skipped: res.Skipped}
	for _, o := range res.Layers {
		rep.Layers = append(rep.Layers, layerReport(o))
	}
	return rep, nil
}

// SpatialComboStudy returns the best mapping for each (package, chiplet)
// spatial partition pair, keyed like "(C,H)" — the per-layer study of
// Fig 11. Combos with no valid mapping are omitted.
func (b *Baton) SpatialComboStudy(l Layer, hw Hardware) map[string]LayerReport {
	out := make(map[string]LayerReport)
	for combo, o := range mapper.BestPerSpatialCombo(l, hw, b.cm) {
		out[combo] = layerReport(o)
	}
	return out
}

// Comparison is a Simba-vs-NN-Baton result: one layer (Fig 12) or one
// model (Fig 13).
type Comparison struct {
	Model        string // the compared model, or the compared layer's model
	Simba        Breakdown
	NNBaton      Breakdown
	SavingsRatio float64 // 1 − NNBaton/Simba
}

// compare prices Simba's traffic on hw and sets it against NN-Baton's
// energy.
func (b *Baton) compare(model string, simbaTraffic Traffic, baton Breakdown, hw Hardware) Comparison {
	simbaE := energy.FromTraffic(simbaTraffic, hw, b.cm)
	return Comparison{
		Model:        model,
		Simba:        simbaE,
		NNBaton:      baton,
		SavingsRatio: 1 - baton.Total()/simbaE.Total(),
	}
}

// CompareSimbaLayer evaluates one layer under both the Simba weight-centric
// baseline and NN-Baton's output-centric optimal mapping on identical
// computation and memory resources.
func (b *Baton) CompareSimbaLayer(l Layer, hw Hardware) (Comparison, error) {
	sr, err := simba.Evaluate(l, hw, simba.DefaultGrid(hw))
	if err != nil {
		return Comparison{}, err
	}
	opt, err := b.eng.EvalLayer(context.Background(), l, hw, mapper.Config{})
	if err != nil {
		return Comparison{}, err
	}
	return b.compare(l.Model, sr.Traffic, opt.Energy, hw), nil
}

// CompareSimba is CompareSimbaLayer over a whole model. A model with an
// unmappable layer fails rather than compare unequal work.
func (b *Baton) CompareSimba(m Model, hw Hardware) (Comparison, error) {
	st, _, err := simba.EvaluateModel(m, hw, simba.DefaultGrid(hw))
	if err != nil {
		return Comparison{}, err
	}
	res, err := b.eng.EvalModel(context.Background(), m, hw, mapper.Config{})
	if err != nil {
		return Comparison{}, err
	}
	if !res.Complete() {
		return Comparison{}, fmt.Errorf("nnbaton: %d layers unmappable on %s", len(res.Skipped), hw.Tuple())
	}
	return b.compare(m.Name, st, res.Energy, hw), nil
}

// FusionReport is the result of the inter-layer fusion extension study.
type FusionReport struct {
	Model      string
	Groups     int
	FusedEdges int
	Unfused    Breakdown // per-layer optimal mappings, DRAM round trips
	Fused      Breakdown // same mappings with fused intermediates on A-L2
	SavedDRAM  int64     // bytes kept on-package
}

// FusionStudy maps a model layer-wise, then applies the inter-layer fusion
// extension (internal/pipeline): consecutive layers whose intermediate
// feature map fits the aggregate A-L2 keep it on-package. The unfused
// breakdown reproduces the paper's layer-wise evaluation.
func (b *Baton) FusionStudy(m Model, hw Hardware) (FusionReport, error) {
	res, err := b.eng.EvalModel(context.Background(), m, hw, mapper.Config{})
	if err != nil {
		return FusionReport{}, err
	}
	sv, err := pipeline.Study(m, hw, res.Layers, b.cm)
	if err != nil {
		return FusionReport{}, err
	}
	sch := sv.Schedule
	return FusionReport{
		Model: m.Name, Groups: len(sch.Groups), FusedEdges: sch.FusedEdges(),
		Unfused: sv.Unfused, Fused: sv.Fused, SavedDRAM: sv.SavedDRAMBytes,
	}, nil
}

// Granularity runs the Fig 14 chiplet-granularity study over a space
// (TableIISpace for the paper's): every compute allocation of totalMACs
// with proportional memory, reporting energy, runtime and area per
// implementation. It stops when ctx is cancelled.
func (b *Baton) Granularity(ctx context.Context, m Model, space Space, totalMACs int, areaLimitMM2 float64) (dse.GranularityResult, error) {
	return dse.Granularity(ctx, m, space, totalMACs, areaLimitMM2, hardware.DefaultProportion(), b.eng)
}

// Explore runs the Fig 15 full pre-design sweep over a space (TableIISpace
// for the paper's): compute × memory allocations under an area constraint.
// It stops when ctx is cancelled.
func (b *Baton) Explore(ctx context.Context, m Model, space Space, totalMACs int, areaLimitMM2 float64) (dse.ExploreResult, error) {
	return dse.Explore(ctx, m, space, totalMACs, areaLimitMM2, b.eng)
}

// ChipletAreaMM2 returns the modeled silicon area of one chiplet.
func (b *Baton) ChipletAreaMM2(hw Hardware) float64 { return b.cm.ChipletAreaMM2(hw) }

// Fault-scenario re-exports: the yield-aware degraded-fabric flow.
type (
	// FaultMask is a canonical, comparable description of a degraded package
	// (dead chiplets, dead cores, binned lanes, binned clock). The zero
	// value is the healthy identity.
	FaultMask = hardware.FaultMask
	// ScenarioPoint is the evaluation of a model set on one degraded fabric.
	ScenarioPoint = engine.ScenarioPoint
	// YieldModel turns per-die defect probabilities and a seed into
	// deterministic fault-mask series (internal/faults).
	YieldModel = faults.YieldModel
)

// ParseFault parses the textual fault-spec grammar ("chiplet2,cores3@1,
// lanes1@0,freq90%" or "healthy") against a configuration and returns the
// canonical mask.
func ParseFault(spec string, hw Hardware) (FaultMask, error) {
	return hardware.ParseFaultMask(spec, hw)
}

// DefaultYield returns the reference yield model of the degradation
// experiments for a seed.
func DefaultYield(seed int64) YieldModel { return faults.DefaultYield(seed) }

// MapModelDegraded runs the post-design flow on a degraded fabric: the mask
// is validated against the hardware, the surviving fabric's uniform
// envelopes are each searched, and the best envelope wins. The zero mask is
// result-identical to MapModel.
func (b *Baton) MapModelDegraded(ctx context.Context, m Model, hw Hardware, mask FaultMask) (ScenarioPoint, error) {
	pt := b.eng.EvalScenario(ctx, []Model{m}, hw, mask, mapper.Config{})
	if pt.Err != nil {
		return pt, pt.Err
	}
	return pt, nil
}

// DegradationSweep evaluates a model across an escalating fault series on
// one base configuration — the graceful-degradation curve. The result is
// indexed by the input series and byte-identical across worker counts; with
// a checkpoint journal configured, completed scenarios replay on resume.
func (b *Baton) DegradationSweep(ctx context.Context, m Model, hw Hardware, masks []FaultMask) ([]ScenarioPoint, error) {
	return b.eng.DegradationSweep(ctx, []Model{m}, hw, masks, mapper.Config{})
}

// Serving re-exports (internal/serve): the trace-driven serving flow that
// turns one-shot evaluations into traffic.
type (
	// ServingTrace is an ordered arrival trace of inference requests.
	ServingTrace = serve.Trace
	// ServingRequest is one arrival: net index, injection time, model,
	// input count.
	ServingRequest = serve.Request
	// ServingConfig is the batching/queueing policy of a serving run.
	ServingConfig = serve.Config
	// ServingResult is the latency/throughput/utilization outcome of
	// replaying one trace against one scenario.
	ServingResult = serve.Result
)

// ParseServingTrace reads the CHIPSIM-style arrival-trace CSV
// (net_idx,inject_time_us,network,num_inputs) with line-numbered errors.
func ParseServingTrace(r io.Reader) (ServingTrace, error) { return serve.ParseTrace(r) }

// ReferenceServingTrace generates the deterministic mixed-model reference
// trace of the serving benchmarks.
func ReferenceServingTrace(n int, meanGapUS float64, models ...string) ServingTrace {
	return serve.ReferenceTrace(n, meanGapUS, models...)
}

// RenderServing writes the scenario-comparison table and per-model
// breakdowns of serving results; the output is byte-stable.
func RenderServing(w io.Writer, title string, results []ServingResult) error {
	return serve.Render(w, title, results)
}

// ServeTraceScenarios replays one trace across a list of fault scenarios
// through the engine's journaled sweep path: scenarios evaluate in parallel
// sharing the search cache, results are indexed by the mask list
// (byte-identical across worker counts), and with a checkpoint journal
// configured, completed scenario evaluations replay on resume.
func (b *Baton) ServeTraceScenarios(ctx context.Context, t ServingTrace, models []Model, hw Hardware, masks []FaultMask, cfg ServingConfig) ([]ServingResult, error) {
	oracles, err := serve.BuildOracles(ctx, b.eng, models, hw, masks, mapper.Config{})
	if err != nil {
		return nil, err
	}
	results := make([]ServingResult, len(oracles))
	for i, o := range oracles {
		if results[i], err = serve.Simulate(t, o, cfg); err != nil {
			return nil, err
		}
	}
	return results, nil
}
