// Package engine is the unified evaluation core every NN-Baton flow routes
// through: the post-design mapper (baton.MapModel), the Fig 14/15 pre-design
// sweeps (internal/dse), the Simba comparison and the experiment drivers.
//
// The per-layer exhaustive mapping search (mapper.SearchAll) is by far the
// dominant cost of every flow, and it depends only on the layer *shape*
// (stride/kernel/channel/plane tuple), never on the layer name: ResNet-50
// repeats the res2a_branch2b shape across every res2 block, DarkNet-19
// duplicates its 3×3/1×1 alternation, and a DSE sweep re-searches the same
// layers at every anchor configuration. The engine therefore memoizes search
// results in a concurrency-safe cache keyed on (ShapeKey, HWKey, search
// Config), with singleflight-style deduplication so concurrent DSE workers
// never compute the same search twice — the analytical-DSE trick MAESTRO and
// DNN-Chip Predictor key their evaluation on.
//
// All parallelism funnels through one bounded worker discipline: ParallelFor
// fans work out across a bounded goroutine set with context.Context
// cancellation, and a shared semaphore bounds the number of concurrently
// *computing* searches, so nested fan-out (a hardware sweep over models over
// layers) never oversubscribes the machine and a cancelled context unwinds
// the whole tree.
//
// The engine is also the evaluation stack's resilience boundary (see
// Config): search leaders and sweep points run under panic isolation — a
// panicking search becomes a structured PanicError on its point, with the
// singleflight entry closed and evicted so waiters never hang — attempts are
// bounded by per-point deadlines with retry-and-backoff, and completed sweep
// points journal to a checkpoint (internal/ckpt) that a restarted sweep
// replays instead of re-evaluating.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"nnbaton/internal/energy"
	"nnbaton/internal/faults"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapper"
	"nnbaton/internal/obs"
	"nnbaton/internal/workload"
)

// ShapeKey canonically identifies a layer workload shape: two layers with
// equal keys have identical mapping spaces, traffic analyses and energy on
// any hardware. Model and layer names are deliberately excluded; the group
// count is normalized (0 and 1 both mean dense).
type ShapeKey struct {
	HO, WO, CO, CI   int
	R, S             int
	StrideH, StrideW int
	PadH, PadW       int
	Groups           int
}

// ShapeOf returns the canonical shape key of a layer.
func ShapeOf(l workload.Layer) ShapeKey {
	return ShapeKey{
		HO: l.HO, WO: l.WO, CO: l.CO, CI: l.CI,
		R: l.R, S: l.S,
		StrideH: l.StrideH, StrideW: l.StrideW,
		PadH: l.PadH, PadW: l.PadW,
		Groups: l.G(),
	}
}

// HWKey identifies a hardware configuration for cache keying. Config is a
// pure value type, so the key is the configuration itself.
type HWKey hardware.Config

// HWOf returns the cache key of a hardware configuration.
func HWOf(hw hardware.Config) HWKey { return HWKey(hw) }

// searchKey is the full memoization key of one exhaustive layer search.
type searchKey struct {
	shape ShapeKey
	hw    HWKey
	cfg   mapper.Config
}

// entry is one cache slot. The leader that created it computes the search,
// stores opts (or err) and closes done; waiters block on done (or their
// context). A *leaderCancelled err means the entry was evicted and waiters
// should re-elect a leader; any other err is terminal for waiters.
type entry struct {
	done chan struct{}
	opts []mapper.Option
	err  error
}

// Stats is a snapshot of the engine's cache and resilience counters.
type Stats struct {
	// Lookups counts SearchAll requests.
	Lookups int64
	// Searches counts actual search attempts (cache misses, including
	// retried attempts).
	Searches int64
	// Hits counts requests served from a completed cache entry.
	Hits int64
	// Coalesced counts requests that waited on an in-flight identical
	// search instead of recomputing it (singleflight deduplication).
	Coalesced int64
	// Panics counts panics recovered at the engine's isolation boundaries.
	Panics int64
	// Retries counts re-attempts after retryable failures.
	Retries int64
	// Timeouts counts search attempts abandoned at the point deadline.
	Timeouts int64
	// Replayed counts journaled points (sweep points, scenario points and
	// explore compute configurations) served from the checkpoint journal.
	Replayed int64
	// Evictions counts cache entries evicted after a failed search (the
	// entry is removed so a later request re-attempts).
	Evictions int64

	// Persistent-cache tallies (zero unless Config.Cache is set): searches
	// served from disk, disk lookups that missed, entries written, and
	// entries that failed decode/revalidation and were quarantined.
	DiskHits    int64
	DiskMisses  int64
	DiskPuts    int64
	DiskCorrupt int64

	// Search funnel tallies, aggregated over every search the engine ran
	// (see mapper.Counters): candidates generated, pruned by a bound
	// (structurally 0: the group scan bounds cells before materializing
	// them), pruned between pipeline stages, and fully evaluated, plus the
	// feasible cells the scan materialized (FloorsComputed) and the
	// candidate groups it expanded (HeapPopped).
	Generated      int64
	BoundPruned    int64
	StagePruned    int64
	Evaluated      int64
	FloorsComputed int64
	HeapPopped     int64

	// WarmStartHits and WarmStartSeedGap are always zero: every search is cold.
	WarmStartHits, WarmStartSeedGap int64
}

// PrunedFraction returns the fraction of generated candidates the search
// discarded before full evaluation (0 when nothing was generated).
func (s Stats) PrunedFraction() float64 {
	if s.Generated == 0 {
		return 0
	}
	return float64(s.BoundPruned+s.StagePruned) / float64(s.Generated)
}

// String renders the counters with the effective deduplication factor.
func (s Stats) String() string {
	dedup := 1.0
	if s.Searches > 0 {
		dedup = float64(s.Lookups) / float64(s.Searches)
	}
	out := fmt.Sprintf("engine: %d lookups, %d searches, %d hits, %d coalesced (%.1fx dedup)",
		s.Lookups, s.Searches, s.Hits, s.Coalesced, dedup)
	if s.Generated > 0 {
		out += fmt.Sprintf("; search: %d candidates, %d bound-pruned, %d stage-pruned, %d evaluated (%.1f%% pruned), %d cells, %d groups expanded",
			s.Generated, s.BoundPruned, s.StagePruned, s.Evaluated, 100*s.PrunedFraction(),
			s.FloorsComputed, s.HeapPopped)
	}
	if s.Panics > 0 || s.Retries > 0 || s.Timeouts > 0 || s.Replayed > 0 || s.Evictions > 0 {
		out += fmt.Sprintf("; resilience: %d panics, %d retries, %d timeouts, %d replayed, %d evicted",
			s.Panics, s.Retries, s.Timeouts, s.Replayed, s.Evictions)
	}
	if s.DiskHits > 0 || s.DiskMisses > 0 || s.DiskPuts > 0 || s.DiskCorrupt > 0 {
		out += fmt.Sprintf("; store: %d disk hits, %d misses, %d puts, %d corrupt",
			s.DiskHits, s.DiskMisses, s.DiskPuts, s.DiskCorrupt)
	}
	return out
}

// Evaluator is the concurrent evaluation core: a memoized layer-search cache
// plus the bounded worker discipline and the resilience policy of its
// Config. One Evaluator is intended to live as long as its cost model — the
// Baton façade keeps one for its lifetime, so the cache persists across
// MapModel, Granularity and Explore calls.
type Evaluator struct {
	cm  *hardware.CostModel
	cfg Config
	sem chan struct{} // bounds concurrently *computing* searches

	// reg is the attached metrics registry (nil when observation is
	// disabled: spans then reduce to a branch and the cache counters to
	// unregistered atomics). sink receives sweep progress events.
	reg  *obs.Registry
	sink obs.ProgressSink

	mu    sync.Mutex
	cache map[searchKey]*entry

	// Cache and resilience counters. Always live (Stats serves the -stats
	// flag with or without a registry); registered under engine.* when a
	// registry is attached so they appear in the -metrics dump.
	lookups, searches, hits, coalesced *obs.Counter
	panics, retries, timeouts          *obs.Counter
	replayed, evictions                *obs.Counter
	diskHits, diskMisses               *obs.Counter
	diskPuts, diskCorrupt              *obs.Counter
	cacheEntries                       *obs.Gauge

	// searchCtrs receives the mapper's search-funnel tallies for every
	// search the engine leads (unless the caller supplied its own Counters).
	searchCtrs *mapper.Counters
}

// New builds an evaluator over a cost model with GOMAXPROCS workers.
func New(cm *hardware.CostModel) *Evaluator { return NewFromConfig(cm, Config{}) }

// NewFromConfig builds an evaluator under a full concurrency/resilience
// policy (see Config; the zero value is the default behavior).
func NewFromConfig(cm *hardware.CostModel, cfg Config) *Evaluator {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	e := &Evaluator{
		cm:    cm,
		cfg:   cfg,
		sem:   make(chan struct{}, cfg.Workers),
		reg:   cfg.Registry,
		sink:  cfg.Sink,
		cache: make(map[searchKey]*entry),
	}
	if reg := cfg.Registry; reg != nil {
		e.lookups = reg.Counter("engine.lookups")
		e.searches = reg.Counter("engine.searches")
		e.hits = reg.Counter("engine.hits")
		e.coalesced = reg.Counter("engine.coalesced")
		e.panics = reg.Counter("engine.panics")
		e.retries = reg.Counter("engine.retries")
		e.timeouts = reg.Counter("engine.timeouts")
		e.replayed = reg.Counter("engine.replayed_points")
		e.evictions = reg.Counter("engine.evictions")
		e.diskHits = reg.Counter("engine.disk_hits")
		e.diskMisses = reg.Counter("engine.disk_misses")
		e.diskPuts = reg.Counter("engine.disk_puts")
		e.diskCorrupt = reg.Counter("engine.disk_corrupt")
		e.cacheEntries = reg.Gauge("engine.cache_entries")
		e.searchCtrs = &mapper.Counters{
			Generated:      reg.Counter("mapper.candidates_generated"),
			BoundPruned:    reg.Counter("mapper.candidates_bound_pruned"),
			StagePruned:    reg.Counter("mapper.candidates_stage_pruned"),
			Evaluated:      reg.Counter("mapper.candidates_evaluated"),
			FloorsComputed: reg.Counter("mapper.floors_computed"),
			HeapPopped:     reg.Counter("mapper.heap_popped"),
		}
	} else {
		e.lookups, e.searches = &obs.Counter{}, &obs.Counter{}
		e.hits, e.coalesced = &obs.Counter{}, &obs.Counter{}
		e.panics, e.retries = &obs.Counter{}, &obs.Counter{}
		e.timeouts, e.replayed = &obs.Counter{}, &obs.Counter{}
		e.evictions = &obs.Counter{}
		e.diskHits, e.diskMisses = &obs.Counter{}, &obs.Counter{}
		e.diskPuts, e.diskCorrupt = &obs.Counter{}, &obs.Counter{}
		e.searchCtrs = &mapper.Counters{
			Generated: &obs.Counter{}, BoundPruned: &obs.Counter{},
			StagePruned: &obs.Counter{}, Evaluated: &obs.Counter{},
			FloorsComputed: &obs.Counter{}, HeapPopped: &obs.Counter{},
		}
	}
	return e
}

// CostModel returns the cost model the evaluator prices with.
func (e *Evaluator) CostModel() *hardware.CostModel { return e.cm }

// Workers returns the compute-concurrency bound.
func (e *Evaluator) Workers() int { return e.cfg.Workers }

// Config returns the evaluator's concurrency/resilience policy.
func (e *Evaluator) Config() Config { return e.cfg }

// Obs returns the attached metrics registry (nil when disabled).
func (e *Evaluator) Obs() *obs.Registry { return e.reg }

// ProgressSink returns the attached sweep progress sink (nil when disabled).
func (e *Evaluator) ProgressSink() obs.ProgressSink { return e.sink }

// Stats snapshots the cache and resilience counters.
func (e *Evaluator) Stats() Stats {
	return Stats{
		Lookups:   e.lookups.Value(),
		Searches:  e.searches.Value(),
		Hits:      e.hits.Value(),
		Coalesced: e.coalesced.Value(),
		Panics:    e.panics.Value(),
		Retries:   e.retries.Value(),
		Timeouts:  e.timeouts.Value(),
		Replayed:  e.replayed.Value(),
		Evictions: e.evictions.Value(),

		DiskHits:    e.diskHits.Value(),
		DiskMisses:  e.diskMisses.Value(),
		DiskPuts:    e.diskPuts.Value(),
		DiskCorrupt: e.diskCorrupt.Value(),

		Generated:      e.searchCtrs.Generated.Value(),
		BoundPruned:    e.searchCtrs.BoundPruned.Value(),
		StagePruned:    e.searchCtrs.StagePruned.Value(),
		Evaluated:      e.searchCtrs.Evaluated.Value(),
		FloorsComputed: e.searchCtrs.FloorsComputed.Value(),
		HeapPopped:     e.searchCtrs.HeapPopped.Value(),
	}
}

// pruneNote renders the live search-funnel state for sweep progress lines:
// how many mapping candidates the searches have generated so far and what
// fraction the branch-and-bound pruning discarded before full evaluation.
// Returns "" until the first search generates candidates.
func (e *Evaluator) pruneNote() string {
	gen := e.searchCtrs.Generated.Value()
	if gen == 0 {
		return ""
	}
	pruned := e.searchCtrs.BoundPruned.Value() + e.searchCtrs.StagePruned.Value()
	note := fmt.Sprintf("%d candidates, %.1f%% pruned", gen, 100*float64(pruned)/float64(gen))
	if fl := e.searchCtrs.FloorsComputed.Value(); fl > 0 {
		note += fmt.Sprintf(", %d cells", fl)
	}
	return note
}

// normalize folds the SearchAll KeepTop default into the cache key so
// equivalent configurations share one entry.
func normalize(cfg mapper.Config) mapper.Config {
	if cfg.KeepTop <= 0 {
		cfg.KeepTop = 8
	}
	return cfg
}

// cacheCfg strips the Config fields that cannot affect search results — the
// intra-layer worker count and the counter sink — so they never fragment the
// memoization key: a 1-worker and an 8-worker search of the same space share
// one cache entry (the parallel search is result-identical by construction).
func cacheCfg(cfg mapper.Config) mapper.Config {
	cfg.Workers = 0
	cfg.Counters = nil
	return cfg
}

// retag re-identifies cached options for the requesting layer: the analysis
// is shape-identical by construction of the key, only the layer identity
// (model/name) differs. Each option gets a fresh Analysis copy so callers
// never alias the cached slot.
func retag(opts []mapper.Option, l workload.Layer) []mapper.Option {
	out := make([]mapper.Option, len(opts))
	for i, o := range opts {
		a := *o.Analysis
		a.Layer = l
		out[i] = mapper.Option{Analysis: &a, Energy: o.Energy, Cycles: o.Cycles}
	}
	return out
}

// SearchAll is the memoized, panic-isolated mapper.SearchAll: the first
// request for a (shape, hardware, config) key computes the exhaustive search
// under the worker semaphore; concurrent identical requests coalesce onto
// that computation, and later requests are served from the cache. Returned
// options carry the identity of the requested layer.
//
// A panicking or overrunning search never strands its waiters: the leader
// converts the failure to an error, closes and evicts the entry, and retries
// under the Config policy before failing everyone terminally.
func (e *Evaluator) SearchAll(ctx context.Context, l workload.Layer, hw hardware.Config, cfg mapper.Config) ([]mapper.Option, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg = normalize(cfg)
	key := searchKey{shape: ShapeOf(l), hw: HWOf(hw), cfg: cacheCfg(cfg)}
	e.lookups.Add(1)

	for {
		e.mu.Lock()
		en, ok := e.cache[key]
		if !ok {
			en = &entry{done: make(chan struct{})}
			e.cache[key] = en
			e.cacheEntries.Set(int64(len(e.cache)))
			e.mu.Unlock()
			return e.lead(ctx, en, key, l, hw, cfg)
		}
		e.mu.Unlock()
		select {
		case <-en.done:
			e.hits.Add(1)
		default:
			e.coalesced.Add(1)
			select {
			case <-en.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if en.err == nil {
			return retag(en.opts, l), nil
		}
		var lc *leaderCancelled
		if errors.As(en.err, &lc) {
			// The leader's context ended before computing; its entry has
			// been evicted. Re-elect a leader if our context is still live.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			continue
		}
		// Terminal failure (panic, exhausted retries): shared with every
		// waiter; the entry was evicted so a later request re-attempts.
		return nil, en.err
	}
}

// lead computes the search for a freshly-created cache entry, applying the
// retry policy, and publishes the result (or terminal error) to waiters.
func (e *Evaluator) lead(ctx context.Context, en *entry, key searchKey, l workload.Layer, hw hardware.Config, cfg mapper.Config) ([]mapper.Option, error) {
	op := l.Name + " on " + hw.String()
	finish := func(opts []mapper.Option, err error) ([]mapper.Option, error) {
		if err == nil {
			en.opts = opts
			close(en.done)
			return retag(opts, l), nil
		}
		en.err = err
		e.mu.Lock()
		delete(e.cache, key)
		e.cacheEntries.Set(int64(len(e.cache)))
		e.mu.Unlock()
		e.evictions.Add(1)
		close(en.done)
		var lc *leaderCancelled
		if errors.As(err, &lc) {
			return nil, lc.cause
		}
		return nil, err
	}

	// The persistent cache sits under the in-memory memo: only a leader with
	// a freshly created entry consults it, so waiters coalesce onto the disk
	// decode exactly as they would onto a live search.
	if opts, ok := e.diskLookup(key, l, hw, cfg); ok {
		return finish(opts, nil)
	}

	for attempt := 0; ; attempt++ {
		opts, err := e.searchAttempt(ctx, l, hw, cfg, op)
		if err == nil {
			e.diskStore(key, opts)
			return finish(opts, nil)
		}
		if ctx.Err() != nil {
			// Our own context ended (possibly mid-attempt): waiters with
			// live contexts re-elect a leader.
			var lc *leaderCancelled
			if !errors.As(err, &lc) {
				err = &leaderCancelled{cause: ctx.Err()}
			}
			return finish(nil, err)
		}
		if !IsRetryable(err) || attempt >= e.cfg.MaxRetries {
			return finish(nil, err)
		}
		e.retries.Add(1)
		if serr := SleepCtx(ctx, e.cfg.backoff(attempt)); serr != nil {
			return finish(nil, &leaderCancelled{cause: serr})
		}
	}
}

// searchAttempt runs one search attempt on its own goroutine under one
// worker slot, bounded by the point deadline. The slot is released by the
// attempt goroutine when the search actually returns, so an abandoned
// (timed-out) attempt cannot oversubscribe the machine; the caller degrades
// immediately either way.
func (e *Evaluator) searchAttempt(ctx context.Context, l workload.Layer, hw hardware.Config, cfg mapper.Config, op string) ([]mapper.Option, error) {
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, &leaderCancelled{cause: ctx.Err()}
	}
	if err := ctx.Err(); err != nil {
		// A select between a free slot and a closed Done channel picks
		// either arm; without this a cancelled request could still start an
		// expensive search.
		<-e.sem
		return nil, &leaderCancelled{cause: err}
	}
	e.searches.Add(1)

	type outcome struct {
		opts []mapper.Option
		err  error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() { <-e.sem }()
		var o outcome
		o.err = e.isolate("engine.search", op, func() error {
			if err := faults.InjectContext(ctx, "engine.search", op); err != nil {
				return err
			}
			if cfg.Counters == nil {
				cfg.Counters = e.searchCtrs
			}
			stop := e.reg.Span("engine.search")
			o.opts = mapper.SearchAll(l, hw, e.cm, cfg)
			stop()
			return nil
		})
		ch <- o
	}()

	var deadline <-chan time.Time
	if e.cfg.PointTimeout > 0 {
		t := time.NewTimer(e.cfg.PointTimeout)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case o := <-ch:
		return o.opts, o.err
	case <-deadline:
		e.timeouts.Add(1)
		return nil, fmt.Errorf("engine: search of %s exceeded the %v point deadline (computation abandoned): %w",
			op, e.cfg.PointTimeout, context.DeadlineExceeded)
	case <-ctx.Done():
		return nil, &leaderCancelled{cause: ctx.Err()}
	}
}

// ErrUnmappable marks a layer with no valid mapping on a configuration — a
// deterministic property of the (shape, hardware) pair, not a fault: model
// evaluation skips such layers where a search failure fails the point.
var ErrUnmappable = errors.New("no valid mapping")

// EvalLayer returns the optimal mapping option for one layer, served from
// the cache when the shape has been searched before. A layer with no valid
// mapping returns an error wrapping ErrUnmappable.
func (e *Evaluator) EvalLayer(ctx context.Context, l workload.Layer, hw hardware.Config, cfg mapper.Config) (mapper.Option, error) {
	cfg.KeepTop = 1
	opts, err := e.SearchAll(ctx, l, hw, cfg)
	if err != nil {
		return mapper.Option{}, err
	}
	if len(opts) == 0 {
		return mapper.Option{}, fmt.Errorf("engine: %w for %s on %s", ErrUnmappable, l.String(), hw.Tuple())
	}
	return opts[0], nil
}

// EvalModel maps every layer of a model with the per-layer optimal strategy,
// searching the layers in parallel. Aggregation runs sequentially in layer
// order, so the result is bit-identical to the sequential
// mapper.SearchModel reference path. Unmappable layers are recorded as
// skipped; a search fault (panic, exhausted retries) fails the evaluation.
func (e *Evaluator) EvalModel(ctx context.Context, m workload.Model, hw hardware.Config, cfg mapper.Config) (mapper.ModelResult, error) {
	defer e.reg.Span("engine.eval_model")()
	found := make([]*mapper.Option, len(m.Layers))
	err := ParallelFor(ctx, len(m.Layers), e.cfg.Workers, func(i int) error {
		o, err := e.EvalLayer(ctx, m.Layers[i], hw, cfg)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(err, ErrUnmappable) {
				return nil // recorded as skipped below
			}
			return err // search fault: degrade the whole evaluation
		}
		found[i] = &o
		return nil
	})
	if err != nil {
		return mapper.ModelResult{}, err
	}
	res := mapper.ModelResult{Model: m}
	for i, l := range m.Layers {
		if found[i] == nil {
			res.Skipped = append(res.Skipped, l.Name)
			continue
		}
		res.Layers = append(res.Layers, *found[i])
		res.Energy = res.Energy.Add(found[i].Energy)
		res.Cycles += found[i].Cycles
	}
	if len(res.Layers) == 0 {
		return res, fmt.Errorf("engine: no layer of %s maps onto %s", m.Name, hw.Tuple())
	}
	return res, nil
}

// ModelEval is the compact aggregate of one model's evaluation on one
// configuration — the JSON-stable unit the checkpoint journal stores and
// downstream consumers (dse.Point aggregation) read, whether the point was
// evaluated live or replayed.
type ModelEval struct {
	Model   string           `json:"model"`
	Energy  energy.Breakdown `json:"energy"`
	Cycles  int64            `json:"cycles"`
	Mapped  int              `json:"mapped"`
	Skipped []string         `json:"skipped,omitempty"`
}

// evalOf is the compact aggregate of one model evaluation.
func evalOf(res mapper.ModelResult) ModelEval {
	return ModelEval{
		Model: res.Model.Name, Energy: res.Energy, Cycles: res.Cycles,
		Mapped: len(res.Layers), Skipped: res.Skipped,
	}
}

// SweepPoint is the evaluation of a model set on one hardware configuration.
type SweepPoint struct {
	HW hardware.Config
	// Evals holds the compact per-model aggregates, in model order — always
	// populated for successful points, including ones replayed from a
	// checkpoint journal.
	Evals []ModelEval
	// Err records why the point could not be evaluated (an unmappable model,
	// an invalid configuration, or a structured PanicError from an isolated
	// search/point panic).
	Err error
	// Replayed marks a point served from the checkpoint journal.
	Replayed bool
	// Attempts counts evaluation attempts (1 without retries).
	Attempts int
}

// sweepRecord is the checkpoint-journal form of one sweep point.
type sweepRecord struct {
	HW       hardware.Config `json:"hw"`
	Evals    []ModelEval     `json:"evals,omitempty"`
	Err      string          `json:"err,omitempty"`
	Attempts int             `json:"attempts,omitempty"`
}

// modelsSig identifies a model set for checkpoint keying.
func modelsSig(models []workload.Model) string {
	parts := make([]string, len(models))
	for i, m := range models {
		parts[i] = fmt.Sprintf("%s@%d/%d", m.Name, m.Resolution, len(m.Layers))
	}
	return strings.Join(parts, "+")
}

// sweepPointKey is the checkpoint key of one sweep point: the model set, the
// search configuration and the full hardware configuration, so a journal is
// only ever replayed into the sweep that produced it. A degraded-fabric
// search config extends the key with the fault mask; a healthy sweep's key
// carries no fault suffix. The literal "obj0" is the energy objective's code
// from when the search also offered an EDP objective: keeping it lets
// journals written then still replay.
func sweepPointKey(sig string, cfg mapper.Config, hw hardware.Config) string {
	key := fmt.Sprintf("sweep|%s|obj0-keep%d-rot%v|%s", sig, cfg.KeepTop, !cfg.DisableRotation, hw.String())
	if !cfg.Fault.IsZero() {
		key += "|fault:" + cfg.Fault.Key()
	}
	return key
}

// EvalSweep evaluates every model on every hardware configuration — the
// inner loop of the pre-design flow. Points run in parallel and all layer
// searches share the cache, so configurations repeating a (shape, hardware)
// pair never recompute it. A failed point — unmappable, invalid, panicked,
// or past its deadline after retries — is recorded on its SweepPoint rather
// than aborting the sweep; only context cancellation returns an error.
//
// With a checkpoint journal configured, each completed point is journaled
// and points already journaled by an earlier (crashed or killed) run are
// replayed instead of re-evaluated (see RunPoints). Each point is timed
// under the engine.sweep_point phase.
func (e *Evaluator) EvalSweep(ctx context.Context, models []workload.Model, hws []hardware.Config, cfg mapper.Config) ([]SweepPoint, error) {
	cfg = normalize(cfg)
	sig := modelsSig(models)
	outs, err := RunPoints(ctx, e, Points[SweepPoint, sweepRecord]{
		Label: "sweep", Span: "engine.sweep_point", Site: "engine.sweep_point", N: len(hws),
		Key: func(i int) string { return sweepPointKey(sig, cfg, hws[i]) },
		Op:  func(i int) string { return hws[i].String() },
		Eval: func(ctx context.Context, i int, pt *SweepPoint) error {
			return e.evalSweepPoint(ctx, models, hws[i], cfg, pt)
		},
		Record: func(o Outcome[SweepPoint]) sweepRecord {
			return sweepRecord{HW: o.Val.HW, Evals: o.Val.Evals, Err: errText(o.Err), Attempts: o.Attempts}
		},
		Replay: func(i int, rec sweepRecord) Outcome[SweepPoint] {
			return Outcome[SweepPoint]{Val: SweepPoint{HW: hws[i], Evals: rec.Evals}, Err: errOf(rec.Err), Attempts: rec.Attempts}
		},
	})
	if err != nil {
		return nil, err
	}
	pts := make([]SweepPoint, len(outs))
	for i, o := range outs {
		pts[i] = o.Val
		pts[i].Err, pts[i].Attempts, pts[i].Replayed = o.Err, o.Attempts, o.Replayed
	}
	return pts, nil
}

// evalSweepPoint is one attempt at a sweep point: the configuration is
// validated up front (an invalid Table II combination is a structured
// failure, not NaN energies downstream), then every model is evaluated. A
// failed point carries only its configuration.
func (e *Evaluator) evalSweepPoint(ctx context.Context, models []workload.Model, hw hardware.Config, cfg mapper.Config, pt *SweepPoint) error {
	pt.HW = hw
	if err := faults.InjectContext(ctx, "engine.sweep_point", hw.String()); err != nil {
		return err
	}
	if err := hw.Validate(); err != nil {
		return err
	}
	var evals []ModelEval
	for _, m := range models {
		res, err := e.EvalModel(ctx, m, hw, cfg)
		if err != nil {
			return err
		}
		evals = append(evals, evalOf(res))
	}
	pt.Evals = evals
	return nil
}
