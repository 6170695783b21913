// Command flowbench is the end-to-end benchmark of NN-Baton's user flows:
// the Fig 15 explore, the Fig 14 granularity study, trace serving and the
// fleet service. It drives each flow through the program's own packages,
// times its calls from outside, reads the counters the program already
// exposes, and checks every output against an independent computation.
//
//	go build -o flowbench . && ./flowbench --workload explore-resnet50 --seed 1 --seconds 20 --trace 0
//
// An untraced run (--trace 0) prints the end-to-end metrics of one workload;
// a traced run (--trace 1) prints the per-layer metrics and writes its spans
// to .flowbench/traces. The last line of standard output is the JSON result.
// README.md lists the workloads, metrics and reference figures.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// flow is one benchmark workload.
type flow interface {
	// nominalUnit is the wall time of one repetition on the reference
	// machine; with --seconds it fixes how many repetitions a run makes.
	nominalUnit() time.Duration
	// setUp builds the fresh program state of one repetition, up to the
	// point where its first unit of work can be issued; setup_s times it.
	setUp(ctx context.Context) (instance, error)
	// check verifies the outputs the last repetition kept.
	check(ctx context.Context) error
	// trace runs one repetition with a span around each call the benchmark
	// makes into a layer, probes the layers the unit reaches only
	// indirectly, and returns the per-layer metrics it measured.
	trace(ctx context.Context, t *tracer) (metricSet, tally, error)
}

// instance is the program state of one repetition.
type instance interface {
	// run executes the workload's unit once and keeps its outputs for check.
	run(ctx context.Context) (tally, error)
	close() error
}

// tally counts the operations a unit attempted and how many of them failed.
type tally struct{ attempted, failed int }

func (t *tally) add(o tally) { t.attempted += o.attempted; t.failed += o.failed }

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is the JSON object a run prints last.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// workloadOrder fixes the order traced passes run in and names every flow.
var workloadOrder = []string{"explore-resnet50", "granularity-fig14", "serve-ladder", "fleet-campaign"}

func newFlow(name string, seed int64, scratch string) (flow, error) {
	switch name {
	case "explore-resnet50":
		return newExploreFlow(seed), nil
	case "granularity-fig14":
		return newGranularityFlow(seed), nil
	case "serve-ladder":
		return newServeFlow(seed), nil
	case "fleet-campaign":
		return newFleetFlow(seed, scratch), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadOrder, ", "))
}

const (
	// setupSamples is how many set-ups a run times at least: one set-up is
	// tens of microseconds to milliseconds and a single timing of it can be
	// off by 50x, so setup_s is the median of many.
	setupSamples = 200
	// minReps is the fewest repetitions a run makes, so wall_s and cpu_s
	// are medians of at least three.
	minReps = 3
)

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadOrder, " | "))
	seed := flag.Int64("seed", 1, "seed of the generated inputs (serving traces, fleet study mix, check samples)")
	seconds := flag.Int("seconds", 20, "measured time of one run; fixes the repetition count")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "flowbench: usage: flowbench --workload NAME --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(*name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(name string, seed int64, seconds int, traced bool) (result, error) {
	scratch, err := filepath.Abs(filepath.Join(".flowbench", fmt.Sprintf("run-%d-%d", os.Getpid(), time.Now().UnixNano())))
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(scratch)
	f, err := newFlow(name, seed, scratch)
	if err != nil {
		return result{}, err
	}
	ctx := context.Background()

	j0 := readJiffies()
	refWall0, refCPU0 := referenceWork()
	var res result
	var ops tally
	if traced {
		res.Metrics, ops, err = tracedRun(ctx, name, f, seed, scratch)
	} else {
		res.Metrics, ops, err = untracedRun(ctx, f, seconds)
	}
	if err != nil {
		return result{}, err
	}
	refWall1, refCPU1 := referenceWork()
	j1 := readJiffies()

	res.Attempted, res.Failed = ops.attempted, ops.failed
	res.Correct = true
	if err := f.check(ctx); err != nil {
		res.Correct = false
		fmt.Fprintln(os.Stderr, "flowbench: check failed:", err)
	}
	steal, total := j1.steal-j0.steal, j1.total-j0.total
	fmt.Printf("# noise: host steal %d of %d jiffies (%.2f%%) over the run\n",
		steal, total, 100*float64(steal)/math.Max(1, float64(total)))
	fmt.Printf("# noise: reference computation wall %.1f ms cpu %.1f ms before, wall %.1f ms cpu %.1f ms after\n",
		ms(refWall0), ms(refCPU0), ms(refWall1), ms(refCPU1))
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// untracedRun runs the fixed number of repetitions --seconds asks for and
// reports the end-to-end metrics. Before each repetition it times an equal
// share of the setupSamples set-ups and keeps the last one for the
// repetition, so set-up timings sample the whole run, not one moment of it.
func untracedRun(ctx context.Context, f flow, seconds int) (metricSet, tally, error) {
	var ops tally
	reps := max(minReps, int(math.Round(float64(seconds)*float64(time.Second)/float64(f.nominalUnit()))))
	perRep := (setupSamples + reps - 1) / reps
	var setups, walls, cpus, allocs []float64
	for i := 0; i < reps; i++ {
		var inst instance
		for k := 0; k < perRep; k++ {
			if inst != nil {
				if err := inst.close(); err != nil {
					return nil, ops, fmt.Errorf("tear-down: %w", err)
				}
				// Collect each discarded set-up's state, so its garbage
				// neither slows the next set-up nor sets the peak RSS.
				runtime.GC()
			}
			t0 := time.Now()
			var err error
			inst, err = f.setUp(ctx)
			d := time.Since(t0)
			if err != nil {
				return nil, ops, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, d.Seconds())
		}
		var t tally
		s, err := timed(func() error {
			var rerr error
			t, rerr = inst.run(ctx)
			return rerr
		})
		if cerr := inst.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, ops, fmt.Errorf("repetition %d: %w", i+1, err)
		}
		ops.add(t)
		walls = append(walls, s.wall.Seconds())
		cpus = append(cpus, s.cpu.Seconds())
		allocs = append(allocs, float64(s.allocBytes)/1e6)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, ops, err
	}
	fmt.Printf("# reps: %d, wall_s %s, cpu_s %s; %d set-ups\n", reps, fmtList(walls), fmtList(cpus), len(setups))
	m := metricSet{}
	m.set("setup_s", "s", median(setups))
	m.set("wall_s", "s", median(walls))
	m.set("cpu_s", "s", median(cpus))
	m.set("alloc_mb", "MB", median(allocs))
	m.set("rss_mb", "MB", rss)
	return m, ops, nil
}

// sharedMetrics are per-layer metrics both DSE workloads produce; a traced
// run reports them from the traced workload's own pass when it has one, and
// from granularity-fig14's otherwise.
var sharedMetrics = map[string]bool{
	"engine.lookups": true, "engine.searches": true, "engine.memo_hit_ratio": true,
	"mapper.warmstart_hits": true, "mapper.warmstart_gap_bp": true,
	"go.gc_cycles": true, "go.gc_pause_ms": true,
}

// tracedRun runs the traced pass of every workload, the named one last, so
// every per-layer metric is reported whichever workload is traced. Only the
// named workload's outputs are checked.
func tracedRun(ctx context.Context, name string, f flow, seed int64, scratch string) (metricSet, tally, error) {
	t := newTracer()
	var ops tally
	passes := map[string]metricSet{}
	for _, other := range append(without(workloadOrder, name), name) {
		g := f
		if other != name {
			var err error
			if g, err = newFlow(other, seed, scratch); err != nil {
				return nil, ops, err
			}
		}
		end := t.beginPass("pass " + other)
		m, o, err := g.trace(ctx, t)
		end()
		if err != nil {
			return nil, ops, fmt.Errorf("%s traced pass: %w", other, err)
		}
		ops.add(o)
		passes[other] = m
	}
	out := metricSet{}
	for _, w := range workloadOrder {
		for k, v := range passes[w] {
			if !sharedMetrics[k] {
				out[k] = v
			}
		}
	}
	owner := "granularity-fig14"
	if _, ok := passes[name]["engine.lookups"]; ok {
		owner = name
	}
	for k := range sharedMetrics {
		out[k] = passes[owner][k]
	}
	var bad []string
	for k, v := range out {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			bad = append(bad, k)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return nil, ops, fmt.Errorf("traced run measured nothing for %s", strings.Join(bad, ", "))
	}
	dir := filepath.Join(".flowbench", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, ops, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
	if err := t.writeFile(path); err != nil {
		return nil, ops, err
	}
	fmt.Printf("# trace: %d spans written to %s\n", len(t.spans), path)
	for _, w := range workloadOrder {
		fmt.Printf("# trace: traced unit of %s took %.3f s wall\n", w, t.medianOf("unit "+w, time.Second))
	}
	return out, ops, nil
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

func without(xs []string, drop string) []string {
	var out []string
	for _, x := range xs {
		if x != drop {
			out = append(out, x)
		}
	}
	return out
}
