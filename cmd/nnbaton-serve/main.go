// Command nnbaton-serve replays an inference arrival trace against a
// (possibly degraded) multichip package: a discrete-event loop applies a
// batching/queueing policy on top of the analytical engine's per-inference
// service times and reports tail latency, throughput and fabric utilization
// per fault scenario.
//
// Usage:
//
//	nnbaton-serve -trace requests.csv -batch 8 -window 500
//	nnbaton-serve -requests 200 -gap 2000 -faults "healthy;chiplet1;chiplet1,freq90%"
//
// The trace format is the CHIPSIM-style CSV
// "net_idx,inject_time_us,network,num_inputs"; without -trace a deterministic
// reference trace is generated from -requests/-gap/-mix.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"nnbaton"
	"nnbaton/internal/cli"
	"nnbaton/internal/workload"
)

// options collects the flag values of one invocation.
type options struct {
	*cli.Flags
	trace    string
	requests int
	gapUS    float64
	mix      string
	res      int
	faults   string
	batch    int
	windowUS float64
	alpha    float64
}

// validate rejects nonsense values of the command's own flags.
func (o options) validate() error {
	if o.trace == "" && o.requests <= 0 {
		return fmt.Errorf("-requests must be positive when no -trace file is given")
	}
	if o.trace == "" && o.gapUS <= 0 {
		return fmt.Errorf("-gap must be positive microseconds")
	}
	if o.windowUS < 0 {
		return fmt.Errorf("-window must be non-negative microseconds")
	}
	if o.alpha < 0 || o.alpha > 1 {
		return fmt.Errorf("-alpha must be in (0,1] (0 selects the default 1)")
	}
	return nil
}

func main() {
	o := options{Flags: cli.Register(flag.CommandLine, "nnbaton-serve",
		cli.Pprof|cli.Stats|cli.Checkpoint|cli.Hardware)}
	flag.StringVar(&o.trace, "trace", "", "arrival-trace CSV (net_idx,inject_time_us,network,num_inputs); empty generates a reference trace")
	flag.IntVar(&o.requests, "requests", 120, "reference trace: number of requests")
	flag.Float64Var(&o.gapUS, "gap", 2500, "reference trace: mean inter-arrival gap in microseconds")
	flag.StringVar(&o.mix, "mix", "alexnet,darknet19", "reference trace: comma-separated model mix")
	flag.IntVar(&o.res, "res", 224, "input resolution every traced model is loaded at (224 or 512)")
	flag.StringVar(&o.faults, "faults", "healthy", "semicolon-separated fault scenarios to serve under (each a spec like 'chiplet2,cores3@1,freq90%' or 'healthy')")
	flag.IntVar(&o.batch, "batch", 8, "max inputs per launched batch (<= 0 unlimited)")
	flag.Float64Var(&o.windowUS, "window", 500, "batching window in microseconds, anchored at the head-of-line arrival")
	flag.Float64Var(&o.alpha, "alpha", 0.8, "marginal batch cost per extra input in (0,1]; 0 selects 1 (no amortization)")
	flag.Parse()
	o.MustValidate(o.validate())
	ctx, stop := cli.SignalContext()
	defer stop()
	if err := run(ctx, o); err != nil {
		fmt.Fprintln(os.Stderr, "nnbaton-serve:", err)
		os.Exit(1)
	}
}

// loadTrace reads the -trace file or generates the reference trace.
func loadTrace(o options) (nnbaton.ServingTrace, error) {
	if o.trace == "" {
		var mix []string
		for _, m := range strings.Split(o.mix, ",") {
			if m = strings.TrimSpace(m); m != "" {
				mix = append(mix, m)
			}
		}
		return nnbaton.ReferenceServingTrace(o.requests, o.gapUS, mix...), nil
	}
	f, err := os.Open(o.trace)
	if err != nil {
		return nnbaton.ServingTrace{}, err
	}
	defer f.Close()
	return nnbaton.ParseServingTrace(f)
}

func run(ctx context.Context, o options) error {
	tr, err := loadTrace(o)
	if err != nil {
		return err
	}
	hw := o.Hardware()
	models := make([]nnbaton.Model, 0, len(tr.Models()))
	for _, name := range tr.Models() {
		m, err := workload.Load(name, o.res)
		if err != nil {
			return err
		}
		models = append(models, m)
	}
	cfg, err := o.Setup()
	if err != nil {
		return err
	}
	tool := nnbaton.NewWithConfig(cfg)
	defer o.Close(tool.EngineStats)
	policy := nnbaton.ServingConfig{MaxBatch: o.batch, WindowUS: o.windowUS, Alpha: o.alpha}
	var masks []nnbaton.FaultMask
	for _, spec := range strings.Split(o.faults, ";") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		mask, err := nnbaton.ParseFault(spec, hw)
		if err != nil {
			return err
		}
		masks = append(masks, mask)
	}
	if len(masks) == 0 {
		return fmt.Errorf("-faults lists no scenario")
	}
	// The journaled sweep path evaluates scenarios in parallel on the shared
	// search cache and, with -checkpoint, replays completed ones on -resume.
	results, err := tool.ServeTraceScenarios(ctx, tr, models, hw, masks, policy)
	if err != nil {
		return err
	}
	title := fmt.Sprintf("Serving %d requests (%d inputs) on %s (batch<=%d, window %.0fus, alpha %.1f)",
		len(tr.Requests), tr.Inputs(), hw.Tuple(), policy.MaxBatch, policy.WindowUS, policy.Alpha)
	return nnbaton.RenderServing(os.Stdout, title, results)
}
