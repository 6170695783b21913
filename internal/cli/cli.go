// Package cli is the flag bundle the nnbaton commands share: the engine's
// resilience policy (-timeout, -retries), observability (-metrics, -pprof,
// -stats, -progress), persistence (-checkpoint, -resume, -fsync,
// -cache-dir) and the fabric (-topology, and the -chiplets/-cores/-lanes/
// -vector override of the case-study hardware).
//
// A command registers the subset it takes, checks it with Validate, turns
// it into an engine configuration with Setup and releases what Setup
// opened with Close, on every exit path.
package cli

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nnbaton/internal/ckpt"
	"nnbaton/internal/engine"
	"nnbaton/internal/hardware"
	"nnbaton/internal/obs"
	"nnbaton/internal/store"
)

// Set selects the optional shared flags a command registers. Every command
// takes -timeout, -retries, -metrics, -cache-dir and -topology.
type Set uint

const (
	// Pprof registers -pprof.
	Pprof Set = 1 << iota
	// Stats registers -stats.
	Stats
	// Progress registers -progress.
	Progress
	// Checkpoint registers -checkpoint and -resume.
	Checkpoint
	// Fsync registers -fsync. Without it the journal syncs every record.
	Fsync
	// Hardware registers the -chiplets/-cores/-lanes/-vector override.
	Hardware
)

// Flags holds the shared flag values of one invocation and, between Setup
// and Close, the journal, cache and registry they opened.
type Flags struct {
	Timeout      time.Duration
	Retries      int
	Metrics      string
	Pprof        string
	Stats        bool
	Progress     bool
	Checkpoint   string
	Resume       bool
	Fsync        bool
	CacheDir     string
	TopologyName string
	Chiplets     int
	Cores        int
	Lanes        int
	Vector       int

	name    string
	set     Set
	reg     *obs.Registry
	journal *ckpt.Journal
	cache   *store.Store
}

// Register declares the shared flags of set on fs for the command name
// (the prefix of its error messages).
func Register(fs *flag.FlagSet, name string, set Set) *Flags {
	f := &Flags{name: name, set: set}
	fs.DurationVar(&f.Timeout, "timeout", 0, "deadline for each layer search or sweep point (e.g. 30s); 0 disables")
	fs.IntVar(&f.Retries, "retries", 0, "max re-attempts after a retryable failure (panic, deadline, transient)")
	fs.StringVar(&f.Metrics, "metrics", "", "write per-phase timing and engine cache metrics as JSON to this file on exit")
	fs.StringVar(&f.CacheDir, "cache-dir", "", "persist layer-search results to this crash-safe cache directory and reuse them across runs")
	fs.StringVar(&f.TopologyName, "topology", "ring", "on-package interconnect: "+strings.Join(hardware.TopologyNames(), "|"))
	if set&Pprof != 0 {
		fs.StringVar(&f.Pprof, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	}
	if set&Stats != 0 {
		fs.BoolVar(&f.Stats, "stats", false, "print engine search-cache statistics on exit; with parallel workers the funnel, hit and coalesced counts vary from run to run with scheduling (GOMAXPROCS=1 reproduces them)")
	}
	if set&Progress != 0 {
		fs.BoolVar(&f.Progress, "progress", false, "report sweep progress (points done/total, failures, ETA) on stderr")
	}
	if set&Checkpoint != 0 {
		fs.StringVar(&f.Checkpoint, "checkpoint", "", "journal completed sweep points and scenarios to this JSONL file (crash-safe)")
		fs.BoolVar(&f.Resume, "resume", false, "replay points already journaled in the -checkpoint file instead of re-evaluating them")
	}
	if set&Fsync != 0 {
		fs.BoolVar(&f.Fsync, "fsync", false, "fsync every -checkpoint record before acknowledging it (survives OS crashes and power loss, slower)")
	}
	if set&Hardware != 0 {
		fs.IntVar(&f.Chiplets, "chiplets", 0, "override: chiplets per package")
		fs.IntVar(&f.Cores, "cores", 0, "override: cores per chiplet")
		fs.IntVar(&f.Lanes, "lanes", 0, "override: lanes per core")
		fs.IntVar(&f.Vector, "vector", 0, "override: vector-MAC size")
	}
	return f
}

// Validate rejects nonsense shared flag values before any work starts, so
// a sweep fails on line one instead of after hours without a record.
func (f *Flags) Validate() error {
	if f.Timeout < 0 {
		return fmt.Errorf("-timeout must be non-negative, got %v", f.Timeout)
	}
	if f.Retries < 0 {
		return fmt.Errorf("-retries must be non-negative, got %d", f.Retries)
	}
	if f.Resume && f.Checkpoint == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	if f.Fsync && f.Checkpoint == "" {
		return fmt.Errorf("-fsync requires -checkpoint")
	}
	if _, err := hardware.ParseTopology(f.TopologyName); err != nil {
		return fmt.Errorf("-topology: %w", err)
	}
	if err := f.Hardware().Validate(); err != nil {
		return err
	}
	if f.Checkpoint != "" {
		if err := ckpt.ValidateWritable(f.Checkpoint); err != nil {
			return fmt.Errorf("-checkpoint: %w", err)
		}
	}
	if f.CacheDir != "" {
		if err := store.EnsureWritableDir(f.CacheDir); err != nil {
			return fmt.Errorf("-cache-dir: %w", err)
		}
	}
	return nil
}

// MustValidate exits with status 2 on the command's own flag error, else
// on the first shared one.
func (f *Flags) MustValidate(own error) {
	if own == nil {
		own = f.Validate()
	}
	if own != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", f.name, own)
		os.Exit(2)
	}
}

// Topology returns the -topology fabric (ring when it does not parse,
// which Validate rejects).
func (f *Flags) Topology() hardware.Topology {
	t, _ := hardware.ParseTopology(f.TopologyName)
	return t
}

// Hardware returns the case-study configuration on the -topology fabric.
// A positive -chiplets/-cores/-lanes/-vector replaces that field, and the
// buffers are then re-sized in proportion to the compute.
func (f *Flags) Hardware() hardware.Config {
	hw := hardware.CaseStudy()
	if f.Chiplets > 0 || f.Cores > 0 || f.Lanes > 0 || f.Vector > 0 {
		hw = hardware.Config{
			Chiplets: override(f.Chiplets, hw.Chiplets), Cores: override(f.Cores, hw.Cores),
			Lanes: override(f.Lanes, hw.Lanes), Vector: override(f.Vector, hw.Vector),
		}.WithProportionalMemory(hardware.DefaultProportion())
	}
	hw.Topology = f.Topology()
	return hw
}

func override(flag, base int) int {
	if flag > 0 {
		return flag
	}
	return base
}

// Setup installs the -metrics registry as the process default (so
// c3p/sim/halo phases are captured too), starts -pprof, opens the -checkpoint
// journal and the -cache-dir store, and returns the engine configuration
// over them. On failure it releases what it opened; on success call Close.
func (f *Flags) Setup() (cfg engine.Config, err error) {
	defer func() {
		if err != nil {
			f.Close(nil)
		}
	}()
	if f.Metrics != "" {
		f.reg = obs.NewRegistry()
		obs.SetDefault(f.reg)
	}
	if f.Pprof != "" {
		addr, err := obs.ServePprof(f.Pprof)
		if err != nil {
			return engine.Config{}, err
		}
		fmt.Fprintf(os.Stderr, "pprof: http://%s/debug/pprof/\n", addr)
	}
	cfg = engine.Config{PointTimeout: f.Timeout, MaxRetries: f.Retries, Registry: f.reg}
	if f.Progress {
		cfg.Sink = obs.NewWriterSink(os.Stderr)
	}
	if f.Checkpoint != "" {
		j, err := ckpt.OpenWith(f.Checkpoint, ckpt.Options{Resume: f.Resume, Fsync: f.Fsync || f.set&Fsync == 0})
		if err != nil {
			return engine.Config{}, err
		}
		f.journal, cfg.Journal = j, j
		if f.Resume {
			fmt.Fprintf(os.Stderr, "resuming from %s: %d journaled points", f.Checkpoint, j.Len())
			if t := j.Torn(); t > 0 {
				fmt.Fprintf(os.Stderr, " (%d torn/skipped)", t)
			}
			fmt.Fprintln(os.Stderr)
		}
	}
	if f.CacheDir != "" {
		c, err := store.Open(f.CacheDir, store.Options{Registry: f.reg})
		if err != nil {
			return engine.Config{}, err
		}
		f.cache, cfg.Cache = c, c
	}
	return cfg, nil
}

// Close prints -stats (from stats, when non-nil), syncs and closes the
// cache and the journal, and writes -metrics last so it sees their final
// counts. Errors go to stderr: the run's own outcome decides the exit code.
func (f *Flags) Close(stats func() engine.Stats) {
	if f.Stats && stats != nil {
		fmt.Fprintln(os.Stderr, stats())
	}
	if f.cache != nil {
		f.warn(f.cache.Close())
	}
	if f.journal != nil {
		f.warn(f.journal.Close())
	}
	if f.reg != nil {
		if err := f.reg.WriteFile(f.Metrics); err != nil {
			f.warn(err)
		} else {
			fmt.Fprintf(os.Stderr, "wrote metrics to %s\n", f.Metrics)
		}
	}
}

func (f *Flags) warn(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", f.name, err)
	}
}

// SignalContext is cancelled by Ctrl-C or a supervisor's SIGTERM, so the
// engine's workers stop cleanly and Close still flushes the journal and the
// cache instead of the process dying mid-write.
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}
