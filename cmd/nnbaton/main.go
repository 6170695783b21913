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

	"nnbaton"
	"nnbaton/internal/c3p"
	"nnbaton/internal/cli"
	"nnbaton/internal/energy"
	"nnbaton/internal/hardware"
	"nnbaton/internal/report"
	"nnbaton/internal/sim"
	"nnbaton/internal/strategy"
	"nnbaton/internal/workload"
)

// options collects the flag values of one invocation.
type options struct {
	*cli.Flags
	model  string
	res    int
	layer  string
	simba  bool
	trace  bool
	out    string
	load   string
	faults string
}

// validate rejects nonsense values of the command's own flags.
func (o options) validate() error {
	if o.res <= 0 {
		return fmt.Errorf("-res must be positive, got %d", o.res)
	}
	if o.faults != "" && o.layer != "" {
		return fmt.Errorf("-faults evaluates the whole model; drop -layer")
	}
	if o.faults != "" && o.out != "" {
		return fmt.Errorf("-faults does not export strategy files; drop -o")
	}
	return nil
}

func main() {
	o := options{Flags: cli.Register(flag.CommandLine, "nnbaton", cli.Pprof|cli.Stats|cli.Hardware)}
	flag.StringVar(&o.model, "model", "vgg16", "model: alexnet|vgg16|resnet50|darknet19|mobilenetv2|yolov2, or a .txt description file")
	flag.IntVar(&o.res, "res", 224, "input resolution (224 or 512)")
	flag.StringVar(&o.layer, "layer", "", "map a single named layer instead of the whole model")
	flag.BoolVar(&o.simba, "simba", false, "also evaluate the Simba weight-centric baseline")
	flag.StringVar(&o.out, "o", "", "write the mapping strategy to this JSON file")
	flag.BoolVar(&o.trace, "trace", false, "with -layer: run the discrete-event trace and print a pipeline timeline")
	flag.StringVar(&o.load, "load", "", "load and reprice a strategy JSON file instead of searching")
	flag.StringVar(&o.faults, "faults", "", "map onto a degraded fabric: fault spec like 'chiplet2,cores3@1,freq90%' (see ParseFault)")
	flag.Parse()
	o.MustValidate(o.validate())
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
	cfg, err := o.Setup()
	if err != nil {
		return err
	}
	tool := nnbaton.NewWithConfig(cfg)
	defer o.Close(tool.EngineStats)
	if o.load != "" {
		return reprice(o.load)
	}
	m, err := workload.Load(o.model, o.res)
	if err != nil {
		return err
	}
	hw := o.Hardware()
	var mask nnbaton.FaultMask
	if o.faults != "" {
		if mask, err = nnbaton.ParseFault(o.faults, hw); err != nil {
			return err
		}
	}
	fmt.Printf("hardware: %s  (chiplet area %.2f mm²)\n\n", hw, tool.ChipletAreaMM2(hw))
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
			cmp, err := tool.CompareSimbaLayer(l, hw)
			if err != nil {
				return err
			}
			fmt.Printf("Simba baseline: %.2f uJ (NN-Baton saves %s)\n",
				cmp.Simba.Total()/1e6, report.Pct(cmp.SavingsRatio))
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
