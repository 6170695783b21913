// Command nnbaton-dse runs the pre-design flow: given a target model, a MAC
// budget and a chiplet area constraint, it explores the Table II hardware
// space and recommends the chiplet granularity and resource allocation
// (§IV-D, §VI-B).
//
// Usage:
//
//	nnbaton-dse -model vgg16 -macs 2048 -area 2 -mode granularity
//	nnbaton-dse -model resnet50 -res 512 -macs 4096 -area 3 -mode explore
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"nnbaton"
	"nnbaton/internal/cli"
	"nnbaton/internal/report"
	"nnbaton/internal/workload"
)

// options collects the flag values of one invocation.
type options struct {
	*cli.Flags
	model     string
	res       int
	macs      int
	area      float64
	mode      string
	degrade   int
	faultSeed int64
	shards    int
	worker    string
	leaseTTL  time.Duration
	merge     bool
}

// validate rejects nonsense values of the command's own flags.
func (o options) validate() error {
	if o.degrade < 0 {
		return fmt.Errorf("-degradation must be non-negative, got %d", o.degrade)
	}
	if o.degrade > 0 && o.mode != "granularity" {
		return fmt.Errorf("-degradation requires -mode granularity (it degrades the recommended point)")
	}
	if o.shards < 0 {
		return fmt.Errorf("-shards must be non-negative, got %d", o.shards)
	}
	if o.shards > 1 {
		if o.mode != "explore" {
			return fmt.Errorf("-shards requires -mode explore")
		}
		if o.Checkpoint == "" {
			return fmt.Errorf("-shards requires -checkpoint (each worker journals its shards)")
		}
		if o.CacheDir == "" {
			return fmt.Errorf("-shards requires -cache-dir (lease files live on the shared store)")
		}
	}
	if o.leaseTTL <= 0 {
		return fmt.Errorf("-lease-ttl must be positive, got %v", o.leaseTTL)
	}
	return nil
}

// space returns the Table II exploration space under the selected fabric.
func (o options) space() nnbaton.Space {
	s := nnbaton.TableIISpace()
	s.Topology = o.Topology()
	return s
}

func main() {
	o := options{Flags: cli.Register(flag.CommandLine, "nnbaton-dse",
		cli.Pprof|cli.Stats|cli.Progress|cli.Checkpoint|cli.Fsync)}
	flag.StringVar(&o.model, "model", "vgg16", "model name (see workload.Load) or .txt description file")
	flag.IntVar(&o.res, "res", 224, "input resolution (224 or 512)")
	flag.IntVar(&o.macs, "macs", 2048, "total MAC budget")
	flag.Float64Var(&o.area, "area", 2.0, "chiplet area constraint in mm² (0 = unconstrained)")
	flag.StringVar(&o.mode, "mode", "granularity", "granularity | explore | cost")
	flag.IntVar(&o.degrade, "degradation", 0, "with -mode granularity: follow up with an N-step graceful-degradation sweep of the recommended point")
	flag.Int64Var(&o.faultSeed, "fault-seed", 1, "seed for the -degradation yield series")
	flag.IntVar(&o.shards, "shards", 0, "with -mode explore: shard the sweep across N cooperating worker processes (requires -checkpoint and -cache-dir)")
	flag.StringVar(&o.worker, "worker", fmt.Sprintf("pid-%d", os.Getpid()), "worker identity for sharded sweeps (diagnostic; shows up in lease files)")
	flag.DurationVar(&o.leaseTTL, "lease-ttl", 30*time.Second, "sharded-sweep lease time-to-live: a dead worker's shard is reclaimed after this long without a heartbeat")
	flag.BoolVar(&o.merge, "merge", false, "merge mode: fold the checkpoint journals given as arguments into one canonical journal on stdout, then exit")
	flag.Parse()
	if o.merge {
		if err := merge(flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "nnbaton-dse:", err)
			os.Exit(1)
		}
		return
	}
	o.MustValidate(o.validate())
	ctx, stop := cli.SignalContext()
	defer stop()
	if err := run(ctx, o); err != nil {
		if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			fmt.Fprintln(os.Stderr, "nnbaton-dse: interrupted; journaled points are durable, resume with -resume")
		} else {
			fmt.Fprintln(os.Stderr, "nnbaton-dse:", err)
		}
		os.Exit(1)
	}
}

func run(ctx context.Context, o options) error {
	m, err := workload.Load(o.model, o.res)
	if err != nil {
		return err
	}
	cfg, err := o.Setup()
	if err != nil {
		return err
	}
	tool := nnbaton.NewWithConfig(cfg)
	defer o.Close(tool.EngineStats)
	switch o.mode {
	case "granularity":
		return granularity(ctx, tool, m, o)
	case "explore":
		return explore(ctx, tool, m, o)
	case "cost":
		return cost(ctx, tool, m, o)
	}
	return fmt.Errorf("unknown mode %q (granularity|explore|cost)", o.mode)
}

// cost runs the granularity study and prices every implementation under the
// default fabrication process (the manufacturing-cost extension).
func cost(ctx context.Context, tool *nnbaton.Baton, m nnbaton.Model, o options) error {
	macs, area := o.macs, o.area
	res, err := tool.Granularity(ctx, m, o.space(), macs, area)
	if err != nil {
		return err
	}
	t := report.New(fmt.Sprintf("Manufacturing cost for %s, %d MACs", m.Name, macs),
		"tuple", "area mm2", "die yield", "silicon $", "assembly $", "total $", "EDP pJ*s")
	costed, err := res.WithCosts(nnbaton.DefaultProcess())
	if err != nil {
		return err
	}
	sort.Slice(costed, func(i, j int) bool { return costed[i].Cost.TotalUSD < costed[j].Cost.TotalUSD })
	for _, cp := range costed {
		if cp.MappedLayers == 0 {
			continue
		}
		t.Add(cp.HW.Tuple(), fmt.Sprintf("%.2f", cp.ChipletAreaMM2),
			report.Pct(cp.Cost.DieYield),
			fmt.Sprintf("%.2f", cp.Cost.SiliconUSD), fmt.Sprintf("%.2f", cp.Cost.AssemblyUSD),
			fmt.Sprintf("%.2f", cp.Cost.TotalUSD), fmt.Sprintf("%.3g", cp.EDP()))
	}
	return t.Render(os.Stdout)
}

func granularity(ctx context.Context, tool *nnbaton.Baton, m nnbaton.Model, o options) error {
	macs, area := o.macs, o.area
	res, err := tool.Granularity(ctx, m, o.space(), macs, area)
	if err != nil {
		return err
	}
	t := report.New(fmt.Sprintf("Chiplet granularity for %s, %d MACs, %.1f mm² limit", m.Name, macs, area),
		"tuple", "energy uJ", "runtime ms", "EDP pJ*s", "area mm2", "feasible")
	sort.Slice(res.Points, func(i, j int) bool { return res.Points[i].EDP() < res.Points[j].EDP() })
	for _, p := range res.Points {
		if p.MappedLayers == 0 {
			continue
		}
		t.Add(p.HW.Tuple(), report.UJ(p.Energy.Total()), report.MS(p.Seconds),
			fmt.Sprintf("%.3g", p.EDP()), fmt.Sprintf("%.2f", p.ChipletAreaMM2),
			fmt.Sprint(p.MeetsArea))
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	best, ok := res.BestEDP()
	if !ok {
		fmt.Println("no implementation meets the area constraint")
		return nil
	}
	fmt.Printf("recommended: %s (%s)\n", best.HW.Tuple(), best)
	if o.degrade > 0 {
		return degradation(ctx, tool, m, best.HW, o)
	}
	return nil
}

// degradation answers the yield question for the recommended design point:
// how gracefully does it degrade as fabrication defects accumulate? A seeded
// yield model generates an escalating fault series; every scenario reroutes
// the ring around dead dies and remaps the model onto the surviving fabric.
func degradation(ctx context.Context, tool *nnbaton.Baton, m nnbaton.Model, hw nnbaton.Hardware, o options) error {
	series, err := nnbaton.DefaultYield(o.faultSeed).Series(hw, o.degrade)
	if err != nil {
		return err
	}
	pts, err := tool.DegradationSweep(ctx, m, hw, series)
	if err != nil {
		return err
	}
	fmt.Println()
	return report.DegradationCurve(
		fmt.Sprintf("Graceful degradation of %s on %s (seed %d)", m.Name, hw.Tuple(), o.faultSeed),
		pts).Render(os.Stdout)
}

// merge is the -merge mode: fold worker journals into one canonical journal
// on stdout. The output is byte-identical whether the inputs are N shard
// journals or one single-process journal of the same study.
func merge(paths []string) error {
	if len(paths) == 0 {
		return fmt.Errorf("-merge needs at least one journal file argument")
	}
	stats, err := nnbaton.MergeCheckpoints(os.Stdout, paths...)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "merged %d journals: %d records (%d meta stripped, %d torn lines skipped)\n",
		stats.Files, stats.Records, stats.Meta, stats.Torn)
	return nil
}

// sharded runs this process as one worker of an N-worker exploration: shards
// are claimed through lease files under the shared cache directory, results
// journal to this worker's -checkpoint file, and dead peers' expired shards
// are reclaimed. Fold the worker journals afterwards with -merge.
func sharded(ctx context.Context, tool *nnbaton.Baton, m nnbaton.Model, o options) error {
	sig := nnbaton.StudySignature(m, o.space(), o.macs, o.area, o.shards)
	mgr, err := nnbaton.NewLeaseManager(filepath.Join(o.CacheDir, "leases"), sig, o.worker,
		nnbaton.LeaseOptions{TTL: o.leaseTTL})
	if err != nil {
		return err
	}
	res, err := tool.ExploreSharded(ctx, m, o.space(), o.macs, o.area, mgr, o.shards)
	if err != nil {
		return err
	}
	fmt.Printf("worker %s: completed %d of %d shards (%v), lost %d to takeover\n",
		o.worker, len(res.Completed), o.shards, res.Completed, res.Abandoned)
	fmt.Printf("study complete; merge the worker journals with: nnbaton-dse -merge <journals...>\n")
	return nil
}

func explore(ctx context.Context, tool *nnbaton.Baton, m nnbaton.Model, o options) error {
	macs, area := o.macs, o.area
	if o.shards > 1 {
		return sharded(ctx, tool, m, o)
	}
	res, err := tool.Explore(ctx, m, o.space(), macs, area)
	if err != nil {
		return err
	}
	fmt.Printf("swept %d points, %d valid, %d on the area/EDP Pareto front\n",
		res.Swept, len(res.Points), len(res.ParetoFront()))
	if res.Replayed > 0 {
		fmt.Printf("replayed %d compute configurations from the checkpoint journal\n", res.Replayed)
	}
	if len(res.Failed) > 0 {
		fmt.Printf("%d compute configurations failed:\n", len(res.Failed))
		for _, f := range res.Failed {
			fmt.Printf("  %s\n", f)
		}
	}
	fmt.Println()
	t := report.New("Pareto front (area vs EDP)", "tuple", "memory", "EDP pJ*s", "area mm2")
	front := res.ParetoFront()
	sort.Slice(front, func(i, j int) bool { return front[i].ChipletAreaMM2 < front[j].ChipletAreaMM2 })
	for _, p := range front {
		t.Add(p.HW.Tuple(), p.HW.String(), fmt.Sprintf("%.3g", p.EDP()), fmt.Sprintf("%.2f", p.ChipletAreaMM2))
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	if res.HasBest {
		fmt.Printf("recommended under %.1f mm²: %s\n", area, res.Best.HW)
	}
	return nil
}
