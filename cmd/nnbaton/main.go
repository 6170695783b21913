// Command nnbaton runs the post-design flow: it maps a DNN model onto a
// fixed multichip hardware configuration with the per-layer optimal
// spatial/temporal strategy and reports energy, runtime and the mapping
// decisions (§IV-D).
//
// Usage:
//
//	nnbaton -model vgg16 -res 224                 # case-study hardware
//	nnbaton -model resnet50 -chiplets 2 -cores 8 -lanes 16 -vector 16
//	nnbaton -model vgg16 -layer conv12 -simba     # one layer + baseline
//	nnbaton -model vgg16 -metrics out.json        # per-phase timing dump
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"nnbaton"
	"nnbaton/internal/c3p"
	"nnbaton/internal/energy"
	"nnbaton/internal/hardware"
	"nnbaton/internal/obs"
	"nnbaton/internal/report"
	"nnbaton/internal/sim"
	"nnbaton/internal/simba"
	"nnbaton/internal/strategy"
	"nnbaton/internal/workload"
)

// options collects the flag values of one invocation.
type options struct {
	model     string
	res       int
	layer     string
	simba     bool
	trace     bool
	stats     bool
	chiplets  int
	cores     int
	lanes     int
	vector    int
	out       string
	load      string
	metrics   string
	pprofAddr string
	timeout   time.Duration
	retries   int
	faults    string
	topology  string
	cacheDir  string
}

// validate rejects nonsense flag values before any work starts, so the
// process fails on line one instead of deep inside a sweep.
func (o options) validate() error {
	if o.timeout < 0 {
		return fmt.Errorf("-timeout must be non-negative, got %v", o.timeout)
	}
	if o.retries < 0 {
		return fmt.Errorf("-retries must be non-negative, got %d", o.retries)
	}
	if o.res <= 0 {
		return fmt.Errorf("-res must be positive, got %d", o.res)
	}
	if o.faults != "" && o.layer != "" {
		return fmt.Errorf("-faults evaluates the whole model; drop -layer")
	}
	if o.faults != "" && o.out != "" {
		return fmt.Errorf("-faults does not export strategy files; drop -o")
	}
	if _, err := hardware.ParseTopology(o.topology); err != nil {
		return fmt.Errorf("-topology: %w", err)
	}
	// Fail fast on an unwritable cache directory, before any search runs.
	if o.cacheDir != "" {
		if err := nnbaton.EnsureCacheDir(o.cacheDir); err != nil {
			return fmt.Errorf("-cache-dir: %w", err)
		}
	}
	return nil
}

func main() {
	var o options
	flag.StringVar(&o.model, "model", "vgg16", "model: alexnet|vgg16|resnet50|darknet19|mobilenetv2|yolov2, or a .txt description file")
	flag.IntVar(&o.res, "res", 224, "input resolution (224 or 512)")
	flag.StringVar(&o.layer, "layer", "", "map a single named layer instead of the whole model")
	flag.BoolVar(&o.simba, "simba", false, "also evaluate the Simba weight-centric baseline")
	flag.IntVar(&o.chiplets, "chiplets", 0, "override: chiplets per package")
	flag.IntVar(&o.cores, "cores", 0, "override: cores per chiplet")
	flag.IntVar(&o.lanes, "lanes", 0, "override: lanes per core")
	flag.IntVar(&o.vector, "vector", 0, "override: vector-MAC size")
	flag.StringVar(&o.out, "o", "", "write the mapping strategy to this JSON file")
	flag.BoolVar(&o.trace, "trace", false, "with -layer: run the discrete-event trace and print a pipeline timeline")
	flag.StringVar(&o.load, "load", "", "load and reprice a strategy JSON file instead of searching")
	flag.BoolVar(&o.stats, "stats", false, "print engine search-cache statistics (shape deduplication) after mapping")
	flag.StringVar(&o.metrics, "metrics", "", "write per-phase timing and engine cache metrics as JSON to this file on exit")
	flag.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.DurationVar(&o.timeout, "timeout", 0, "per-layer search deadline (e.g. 30s); 0 disables")
	flag.IntVar(&o.retries, "retries", 0, "max re-attempts after a retryable search failure (panic, deadline, transient)")
	flag.StringVar(&o.faults, "faults", "", "map onto a degraded fabric: fault spec like 'chiplet2,cores3@1,freq90%' (see ParseFault)")
	flag.StringVar(&o.topology, "topology", "ring", "on-package interconnect: "+strings.Join(hardware.TopologyNames(), "|"))
	flag.StringVar(&o.cacheDir, "cache-dir", "", "persist layer-search results to this crash-safe cache directory and reuse them across runs")
	flag.Parse()
	if err := o.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "nnbaton:", err)
		os.Exit(2)
	}
	if o.pprofAddr != "" {
		addr, err := obs.ServePprof(o.pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nnbaton:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pprof: http://%s/debug/pprof/\n", addr)
	}
	if o.load != "" {
		if err := reprice(o.load); err != nil {
			fmt.Fprintln(os.Stderr, "nnbaton:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "nnbaton:", err)
		os.Exit(1)
	}
}

// reprice loads a strategy file, re-validates every mapping and re-prices it
// through the mapper's pricing kernel.
func reprice(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sf, err := strategy.Read(f)
	if err != nil {
		return err
	}
	opts, err := strategy.Reprice(sf, hardware.MustCostModel())
	if err != nil {
		return err
	}
	var br energy.Breakdown
	for _, o := range opts {
		br = br.Add(o.Energy)
	}
	fmt.Printf("strategy %s@%d on %s: %d layers, %.2f mJ\n  %v\n",
		sf.Model, sf.Input, sf.Hardware.Tuple(), len(sf.Layers), br.Total()/1e9, br)
	return nil
}

func run(o options) error {
	m, err := workload.Load(o.model, o.res)
	if err != nil {
		return err
	}
	hw := nnbaton.CaseStudyHardware()
	if o.chiplets > 0 || o.cores > 0 || o.lanes > 0 || o.vector > 0 {
		if o.chiplets > 0 {
			hw.Chiplets = o.chiplets
		}
		if o.cores > 0 {
			hw.Cores = o.cores
		}
		if o.lanes > 0 {
			hw.Lanes = o.lanes
		}
		if o.vector > 0 {
			hw.Vector = o.vector
		}
		hw = hardware.Config{Chiplets: hw.Chiplets, Cores: hw.Cores, Lanes: hw.Lanes, Vector: hw.Vector}.
			WithProportionalMemory(hardware.DefaultProportion())
	}
	hw.Topology, _ = hardware.ParseTopology(o.topology) // validated on line one
	if err := hw.Validate(); err != nil {
		return err
	}
	var mask nnbaton.FaultMask
	if o.faults != "" {
		if mask, err = nnbaton.ParseFault(o.faults, hw); err != nil {
			return err
		}
	}
	var reg *obs.Registry
	if o.metrics != "" {
		reg = obs.NewRegistry()
		obs.SetDefault(reg) // capture c3p/sim/halo phases too
		defer func() {
			if err := reg.WriteFile(o.metrics); err != nil {
				fmt.Fprintln(os.Stderr, "nnbaton:", err)
			} else {
				fmt.Fprintf(os.Stderr, "wrote metrics to %s\n", o.metrics)
			}
		}()
	}
	cfg := nnbaton.EngineConfig{
		PointTimeout: o.timeout,
		MaxRetries:   o.retries,
		Registry:     reg,
	}
	if o.cacheDir != "" {
		cache, err := nnbaton.OpenResultCache(o.cacheDir, nnbaton.StoreOptions{Registry: reg})
		if err != nil {
			return err
		}
		defer cache.Close()
		cfg.Cache = cache
	}
	tool := nnbaton.NewWithConfig(cfg)
	fmt.Printf("hardware: %s  (chiplet area %.2f mm²)\n\n", hw, tool.ChipletAreaMM2(hw))
	if o.stats {
		defer func() { fmt.Fprintln(os.Stderr, tool.EngineStats()) }()
	}
	if o.faults != "" {
		return runDegraded(tool, m, hw, mask)
	}

	if o.layer != "" {
		l, err := m.Layer(o.layer)
		if err != nil {
			return err
		}
		rep, err := tool.MapLayer(l, hw)
		if err != nil {
			return err
		}
		fmt.Printf("%v\n  mapping: %s\n  energy:  %s\n  runtime: %s ms\n\n",
			l, rep.Mapping, rep.Energy, report.MS(rep.Seconds))
		if o.trace {
			a, err := c3p.Analyze(l, hw, rep.Strategy)
			if err != nil {
				return err
			}
			tr, err := sim.Trace(a, 64)
			if err != nil {
				return err
			}
			fmt.Printf("trace: %v (per-chiplet %v)\n", tr, tr.PerChiplet)
			if err := sim.Gantt(os.Stdout, tr, 72); err != nil {
				return err
			}
		}
		if o.simba {
			sr, err := simba.Evaluate(l, hw, simba.DefaultGrid(hw))
			if err != nil {
				return err
			}
			se := energy.FromTraffic(sr.Traffic, hw, hardware.MustCostModel())
			fmt.Printf("Simba baseline: %.2f uJ (NN-Baton saves %s)\n",
				se.Total()/1e6, report.Pct(1-rep.Energy.Total()/se.Total()))
		}
		return nil
	}

	rep, err := tool.MapModel(m, hw)
	if err != nil {
		return err
	}
	if o.out != "" {
		if err := writeStrategy(o.out, m, hw, rep); err != nil {
			return err
		}
		fmt.Printf("wrote mapping strategy to %s\n", o.out)
	}
	t := report.New(fmt.Sprintf("%s @ %dx%d — per-layer optimal mappings", m.Name, m.Resolution, m.Resolution),
		"layer", "mapping", "energy uJ", "runtime ms")
	for _, lr := range rep.Layers {
		t.Add(lr.Layer.Name, lr.Mapping, report.UJ(lr.Energy.Total()), report.MS(lr.Seconds))
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("total: %.2f mJ, %.3f ms", rep.Energy.Total()/1e9, rep.Seconds*1e3)
	if len(rep.Skipped) > 0 {
		fmt.Printf("  (skipped: %s)", strings.Join(rep.Skipped, ","))
	}
	fmt.Println()
	if o.simba {
		cmp, err := tool.CompareSimba(m, hw)
		if err != nil {
			return err
		}
		fmt.Printf("Simba baseline: %.2f mJ — NN-Baton saves %s\n",
			cmp.Simba.Total()/1e9, report.Pct(cmp.SavingsRatio))
	}
	return nil
}

// runDegraded maps the model onto the fabric that survives the fault mask:
// the ring reroutes around dead chiplets and the mapper picks the best
// surviving uniform envelope (yield-aware post-design flow).
func runDegraded(tool *nnbaton.Baton, m workload.Model, hw nnbaton.Hardware, mask nnbaton.FaultMask) error {
	pt, err := tool.MapModelDegraded(context.Background(), m, hw, mask)
	if err != nil {
		return err
	}
	fmt.Printf("fault scenario: %s — %d/%d chiplets alive, %d of %d MACs surviving (%d failed units)\n",
		pt.Mask, pt.Alive, hw.Chiplets, pt.TotalMACs, hw.TotalMACs(), pt.FailedUnits)
	env := pt.Envelope.Tuple()
	if !pt.EnvMask.IsZero() {
		env += " (ring rerouted)"
	}
	fmt.Printf("mapped envelope: %s\n\n", env)
	for _, ev := range pt.Evals {
		fmt.Printf("%s @ %dx%d: %d layers mapped, %.2f mJ, %s ms",
			m.Name, m.Resolution, m.Resolution, ev.Mapped, ev.Energy.Total()/1e9, report.MS(pt.Seconds))
		if len(ev.Skipped) > 0 {
			fmt.Printf("  (skipped: %s)", strings.Join(ev.Skipped, ","))
		}
		fmt.Println()
	}
	fmt.Printf("EDP: %.4g pJ*s\n", pt.EDP())
	return nil
}

// writeStrategy exports the per-layer mapping decisions as a strategy file
// for downstream tooling (the "hardware compiler" interface of §IV-D).
func writeStrategy(path string, m workload.Model, hw nnbaton.Hardware, rep nnbaton.ModelReport) error {
	f := strategy.File{Model: m.Name, Input: m.Resolution, Hardware: hw}
	for _, lr := range rep.Layers {
		f.Layers = append(f.Layers, strategy.LayerStrategy{
			Layer: lr.Layer, Mapping: lr.Strategy,
			EnergyPJ: lr.Energy.Total(), Cycles: lr.Cycles,
		})
	}
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	return strategy.Write(fh, f)
}
