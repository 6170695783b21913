package cli

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"nnbaton/internal/hardware"
)

// parse registers set on a fresh flag set and parses args into it.
func parse(t *testing.T, set Set, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs, "test", set)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return f
}

// TestValidate holds one row per rejection rule of the shared flags, plus
// the accepted defaults and a full valid invocation.
func TestValidate(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	all := Pprof | Stats | Progress | Checkpoint | Fsync | Hardware
	for _, c := range []struct {
		name string
		args []string
		want string // error substring; empty means accepted
	}{
		{"defaults", nil, ""},
		{"valid", []string{"-timeout", "1s", "-retries", "2", "-checkpoint", filepath.Join(dir, "j.jsonl"),
			"-resume", "-fsync", "-cache-dir", filepath.Join(dir, "cache"), "-topology", "mesh",
			"-chiplets", "2", "-lanes", "16"}, ""},
		{"negative timeout", []string{"-timeout", "-1s"}, "-timeout must be non-negative, got -1s"},
		{"negative retries", []string{"-retries", "-1"}, "-retries must be non-negative, got -1"},
		{"resume without checkpoint", []string{"-resume"}, "-resume requires -checkpoint"},
		{"fsync without checkpoint", []string{"-fsync"}, "-fsync requires -checkpoint"},
		{"unknown topology", []string{"-topology", "hypercube"}, `-topology: hardware: unknown topology "hypercube"`},
		{"invalid hardware override", []string{"-lanes", "4611686018427387904", "-vector", "4"}, "hardware: non-positive buffer size"},
		{"unwritable checkpoint", []string{"-checkpoint", filepath.Join(file, "j.jsonl")}, "-checkpoint: "},
		{"unwritable cache dir", []string{"-cache-dir", filepath.Join(file, "cache")}, "-cache-dir: "},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := parse(t, all, c.args...).Validate()
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case c.want != "" && err == nil:
				t.Fatalf("accepted, want error containing %q", c.want)
			case c.want != "" && !strings.Contains(err.Error(), c.want):
				t.Fatalf("error %q, want it to contain %q", err, c.want)
			}
		})
	}
}

// TestRegisterSets pins which flags each selector adds, so a command
// registers exactly the flags it takes.
func TestRegisterSets(t *testing.T) {
	names := func(set Set) string {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		Register(fs, "test", set)
		var out []string
		fs.VisitAll(func(f *flag.Flag) { out = append(out, f.Name) })
		sort.Strings(out)
		return strings.Join(out, " ")
	}
	base := "cache-dir metrics retries timeout topology"
	for _, c := range []struct {
		set  Set
		want string
	}{
		{0, base},
		{Pprof, base + " pprof"},
		{Stats, base + " stats"},
		{Progress, base + " progress"},
		{Checkpoint, "cache-dir checkpoint metrics resume retries timeout topology"},
		{Fsync, "cache-dir fsync metrics retries timeout topology"},
		{Hardware, "cache-dir chiplets cores lanes metrics retries timeout topology vector"},
	} {
		got := names(c.set)
		want := strings.Fields(c.want)
		sort.Strings(want)
		if got != strings.Join(want, " ") {
			t.Errorf("set %b registers %q, want %q", c.set, got, strings.Join(want, " "))
		}
	}
}

// TestHardwareOverride checks the case-study default, the proportional
// re-sizing of an override, and the topology.
func TestHardwareOverride(t *testing.T) {
	if got, want := parse(t, Hardware).Hardware(), hardware.CaseStudy(); got != want {
		t.Errorf("no override: %v, want the case study %v", got, want)
	}
	got := parse(t, Hardware, "-chiplets", "2", "-lanes", "16", "-topology", "torus").Hardware()
	want := hardware.Config{Chiplets: 2, Cores: 8, Lanes: 16, Vector: 8}.
		WithProportionalMemory(hardware.DefaultProportion())
	want.Topology = hardware.TopoTorus
	if got != want {
		t.Errorf("override: %v, want %v", got, want)
	}
}

// TestSetupClose opens every persistence target, checks the engine
// configuration carries them, and checks Close writes -metrics and releases
// the journal so a -resume run replays its record.
func TestSetupClose(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "j.jsonl")
	metrics := filepath.Join(dir, "m.json")
	f := parse(t, Checkpoint|Progress, "-checkpoint", journal, "-cache-dir", filepath.Join(dir, "cache"),
		"-metrics", metrics, "-timeout", "5s", "-retries", "3", "-progress")
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg, err := f.Setup()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.PointTimeout != 5*time.Second || cfg.MaxRetries != 3 || cfg.Registry == nil ||
		cfg.Sink == nil || cfg.Journal == nil || cfg.Cache == nil {
		t.Fatalf("engine config misses a shared setting: %+v", cfg)
	}
	if err := cfg.Journal.Append("k", 1); err != nil {
		t.Fatal(err)
	}
	f.Close(nil)
	if _, err := os.Stat(metrics); err != nil {
		t.Fatalf("-metrics not written: %v", err)
	}

	f = parse(t, Checkpoint, "-checkpoint", journal, "-resume")
	cfg, err = f.Setup()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close(nil)
	if cfg.Cache != nil || cfg.Registry != nil || cfg.Sink != nil {
		t.Fatalf("unset flags configured the engine: %+v", cfg)
	}
	if _, ok := cfg.Journal.Lookup("k"); !ok {
		t.Fatal("-resume did not replay the record of the closed journal")
	}
}

// TestSetupFailureReleases checks a failed Setup still writes -metrics, as
// every exit path must.
func TestSetupFailureReleases(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "m.json")
	f := parse(t, Pprof, "-metrics", metrics, "-pprof", "bad:addr:x")
	if _, err := f.Setup(); err == nil {
		t.Fatal("Setup accepted an unusable -pprof address")
	}
	if _, err := os.Stat(metrics); err != nil {
		t.Fatalf("-metrics not written after a failed Setup: %v", err)
	}
}
