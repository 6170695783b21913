// benchjson converts `go test -bench` text output (read from stdin) into a
// stable JSON artifact, so perf baselines can be committed and diffed — see
// the `bench` Makefile target, which uses it to produce BENCH_mapper.json.
//
// Every metric pair a benchmark line reports is kept (ns/op, B/op, allocs/op,
// plus any b.ReportMetric extras such as candidates/op or pruned/op). When
// both a `<base>Exhaustive` and `<base>Pruned` benchmark appear, a derived
// speedup/alloc-reduction summary is emitted alongside the raw numbers.
//
// With -ab, stdin instead holds repeated runs of the working tree and the
// named file the same number of runs of a base revision, taken alternately
// (the `bench-ab` Makefile target): each benchmark's runs are paired in
// order and compared.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the JSON artifact.
type Report struct {
	GOOS       string             `json:"goos,omitempty"`
	GOARCH     string             `json:"goarch,omitempty"`
	Pkg        string             `json:"pkg,omitempty"`
	CPU        string             `json:"cpu,omitempty"`
	Benchmarks []Benchmark        `json:"benchmarks"`
	Derived    map[string]float64 `json:"derived,omitempty"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	check := flag.String("check", "", "committed baseline JSON to gate against: fail on a >25% ns/op regression of any search/engine/sweep benchmark")
	ab := flag.String("ab", "", "base revision's benchmark output to compare stdin's runs against pair by pair: fail when a search/engine/sweep benchmark's median ns/op ratio is >1.25 and it loses at least two thirds of the pairs")
	flag.Parse()

	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	derive(rep)

	if *ab != "" {
		if err := compareRuns(rep, *ab, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	if *check != "" {
		if err := checkBaseline(rep, *check, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// regressionTolerance is how much slower than the committed baseline a gated
// benchmark may run before -check fails: generous enough to absorb machine
// noise, tight enough to catch a real search or engine regression.
const regressionTolerance = 1.25

// gated reports whether a benchmark participates in the -check regression
// gate: the search and engine paths whose performance this repo's perf PRs
// commit to (pure cost-model microbenchmarks are too noisy to gate on).
func gated(name string) bool {
	return strings.HasPrefix(name, "BenchmarkSearch") ||
		strings.HasPrefix(name, "BenchmarkEngine") ||
		strings.HasPrefix(name, "BenchmarkSweep")
}

// checkBaseline compares a freshly parsed run against the committed baseline
// report and returns an error when any gated benchmark regressed past the
// tolerance. Benchmarks present on only one side are reported but never fail
// the gate — adding a benchmark must not require regenerating the baseline in
// the same change.
func checkBaseline(fresh *Report, path string, w io.Writer) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	baseNS := map[string]float64{}
	for _, b := range base.Benchmarks {
		if ns := b.Metrics["ns/op"]; gated(b.Name) && ns > 0 {
			baseNS[b.Name] = ns
		}
	}
	if len(baseNS) == 0 {
		return fmt.Errorf("baseline %s gates no search/engine/sweep benchmarks", path)
	}
	compared := 0
	var failures []string
	for _, b := range fresh.Benchmarks {
		want, ok := baseNS[b.Name]
		if !ok {
			if gated(b.Name) {
				fmt.Fprintf(w, "benchjson: %s: not in baseline, skipped\n", b.Name)
			}
			continue
		}
		delete(baseNS, b.Name)
		got := b.Metrics["ns/op"]
		ratio := got / want
		compared++
		verdict := "ok"
		if ratio > regressionTolerance {
			verdict = "REGRESSED"
			failures = append(failures, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (%.2fx > %.2fx tolerance)",
				b.Name, got, want, ratio, regressionTolerance))
		}
		fmt.Fprintf(w, "benchjson: %-45s %10.0f ns/op  baseline %10.0f  (%.2fx) %s\n",
			b.Name, got, want, ratio, verdict)
	}
	for name := range baseNS {
		fmt.Fprintf(w, "benchjson: %s: in baseline but not measured, skipped\n", name)
	}
	if compared == 0 {
		return fmt.Errorf("no gated benchmark overlaps the baseline")
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed past %.0f%%:\n  %s",
			len(failures), 100*(regressionTolerance-1), strings.Join(failures, "\n  "))
	}
	fmt.Fprintf(w, "benchjson: %d benchmark(s) within tolerance\n", compared)
	return nil
}

// compareRuns pairs the i-th run of each benchmark in head with the i-th
// run of the same benchmark in the base output at path, and prints per
// benchmark the median head/base ns/op ratio and the pairs head won (ran
// faster). It returns an error when a gated benchmark regressed: its median
// ratio exceeds the tolerance and head lost at least two thirds of the
// pairs. Alternating the runs spreads machine drift over both sides, which
// a single run against a committed baseline cannot.
func compareRuns(head *Report, path string, w io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	base, err := parse(f)
	if err != nil {
		return fmt.Errorf("base %s: %w", path, err)
	}
	runs := func(r *Report) (map[string][]float64, []string) {
		ns, names := map[string][]float64{}, []string(nil)
		for _, b := range r.Benchmarks {
			if _, seen := ns[b.Name]; !seen {
				names = append(names, b.Name)
			}
			ns[b.Name] = append(ns[b.Name], b.Metrics["ns/op"])
		}
		return ns, names
	}
	headNS, names := runs(head)
	baseNS, _ := runs(base)
	compared := 0
	var failures []string
	for _, name := range names {
		h, b := headNS[name], baseNS[name]
		n := min(len(h), len(b))
		if n == 0 {
			fmt.Fprintf(w, "%-45s not in base, skipped\n", name)
			continue
		}
		ratios := make([]float64, n)
		wins := 0
		for i := range ratios {
			ratios[i] = h[i] / b[i]
			if h[i] < b[i] {
				wins++
			}
		}
		slices.Sort(ratios)
		med := (ratios[(n-1)/2] + ratios[n/2]) / 2
		compared++
		verdict := ""
		if lost := n - wins; gated(name) && med > regressionTolerance && 3*lost >= 2*n {
			verdict = " REGRESSED"
			failures = append(failures, fmt.Sprintf("%s: median %.2fx, lost %d of %d pairs", name, med, lost, n))
		}
		fmt.Fprintf(w, "%-45s median head/base %.3fx  head faster in %d/%d pairs%s\n",
			name, med, wins, n, verdict)
	}
	if compared == 0 {
		return fmt.Errorf("no benchmark was measured on both sides")
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed past %.0f%%:\n  %s",
			len(failures), 100*(regressionTolerance-1), strings.Join(failures, "\n  "))
	}
	return nil
}

// parse reads the text format produced by `go test -bench`: header key:value
// lines, then one line per benchmark of the shape
//
//	BenchmarkName-8   <iters>   <value> <unit>   <value> <unit> ...
func parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, err := parseBench(line)
			if err != nil {
				return nil, fmt.Errorf("%q: %w", line, err)
			}
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines found on stdin")
	}
	return rep, nil
}

func parseBench(line string) (Benchmark, error) {
	f := strings.Fields(line)
	if len(f) < 2 {
		return Benchmark{}, fmt.Errorf("too few fields")
	}
	// Strip the -GOMAXPROCS suffix so baselines diff cleanly across machines.
	name := f[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, fmt.Errorf("iterations: %w", err)
	}
	b := Benchmark{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, fmt.Errorf("metric value %q: %w", f[i], err)
		}
		b.Metrics[f[i+1]] = v
	}
	return b, nil
}

// derive adds exhaustive-vs-pruned ratios when both sides were measured, and
// the mesh-vs-ring search cost ratio when a <base>MeshPruned twin of a
// <base>Pruned benchmark appears (the topology-axis overhead tracker).
func derive(rep *Report) {
	byName := map[string]Benchmark{}
	for _, b := range rep.Benchmarks {
		byName[b.Name] = b
	}
	put := func(key string, v float64) {
		if rep.Derived == nil {
			rep.Derived = map[string]float64{}
		}
		rep.Derived[key] = v
	}
	for name, ex := range byName {
		base, ok := strings.CutSuffix(name, "Exhaustive")
		if !ok {
			continue
		}
		pr, ok := byName[base+"Pruned"]
		if !ok {
			continue
		}
		if en, pn := ex.Metrics["ns/op"], pr.Metrics["ns/op"]; pn > 0 {
			put(base+"_speedup", en/pn)
		}
		if ea, pa := ex.Metrics["allocs/op"], pr.Metrics["allocs/op"]; pa > 0 {
			put(base+"_allocs_reduction", ea/pa)
		}
	}
	for name, mesh := range byName {
		base, ok := strings.CutSuffix(name, "MeshPruned")
		if !ok {
			continue
		}
		ring, ok := byName[base+"Pruned"]
		if !ok {
			continue
		}
		if mn, rn := mesh.Metrics["ns/op"], ring.Metrics["ns/op"]; rn > 0 {
			put(base+"_mesh_vs_ring", mn/rn)
		}
	}
}
