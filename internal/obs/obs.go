// Package obs is the observability layer of the evaluation stack: a
// concurrency-safe metrics registry (counters, gauges, duration histograms),
// lightweight timing spans around the phases that dominate sweep wall-clock,
// and progress reporting for long-running DSE sweeps.
//
// The design constraint is that observation must cost nothing when disabled:
// every method is safe on a nil *Registry (and nil *Counter / *Gauge /
// *Histogram) and reduces to a branch, so the evaluation hot path carries no
// time.Now calls, no allocation and no locking unless a registry has been
// attached. Library packages that cannot thread a registry through their
// signatures (c3p, halo, sim) report through the process-wide default
// registry, which is nil until a CLI enables metrics.
//
// Timeloop and MAESTRO ship per-phase statistics reporting alongside their
// analytical cores; this package plays that role for NN-Baton: per-phase
// aggregate timing (count / total / mean / min / max / tail estimate),
// engine cache counters, and a JSON dump consumed by the -metrics flag.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; a nil *Counter discards all updates.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can move in both directions (e.g. in-flight
// searches, cache size). A nil *Gauge discards all updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by delta. No-op on a nil receiver.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current gauge value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of power-of-two duration buckets: bucket i counts
// observations in [2^i, 2^(i+1)) microseconds, with the last bucket open
// ended. 2^31 µs ≈ 36 minutes, far beyond any single phase.
const histBuckets = 32

// Histogram aggregates durations of one phase: count, sum, min, max and
// power-of-two bucket counts for tail estimation. All updates are lock-free
// atomics so concurrent sweep workers never serialize on observation. A nil
// *Histogram discards all updates.
type Histogram struct {
	count   atomic.Int64
	sumNS   atomic.Int64
	minNS   atomic.Int64 // 0 = unset (durations are clamped to >= 1ns)
	maxNS   atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// bucketOf maps a duration to its power-of-two microsecond bucket.
func bucketOf(d time.Duration) int {
	us := d.Microseconds()
	b := 0
	for us > 1 && b < histBuckets-1 {
		us >>= 1
		b++
	}
	return b
}

// Observe records one duration. No-op on a nil receiver.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := max(int64(d), 1)
	h.count.Add(1)
	h.sumNS.Add(ns)
	h.buckets[bucketOf(d)].Add(1)
	for {
		cur := h.minNS.Load()
		if cur != 0 && cur <= ns {
			break
		}
		if h.minNS.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := h.maxNS.Load()
		if cur >= ns {
			break
		}
		if h.maxNS.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Time runs f and records its duration. No-op timing on a nil receiver (f
// still runs).
func (h *Histogram) Time(f func()) {
	if h == nil {
		f()
		return
	}
	t0 := time.Now()
	f()
	h.Observe(time.Since(t0))
}

// quantileNS estimates the q-quantile (0..1) from the bucket counts: the
// upper bound of the bucket holding the q-th observation.
func (h *Histogram) quantileNS(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			// Upper edge of bucket i: 2^(i+1) µs.
			return int64(1) << (i + 1) * int64(time.Microsecond)
		}
	}
	return h.maxNS.Load()
}

// PhaseStats is the exported aggregate of one duration histogram.
type PhaseStats struct {
	Count   int64   `json:"count"`
	TotalMS float64 `json:"total_ms"`
	MeanMS  float64 `json:"mean_ms"`
	MinMS   float64 `json:"min_ms"`
	MaxMS   float64 `json:"max_ms"`
	// P95MS is a bucket-resolution (power-of-two) upper-bound estimate.
	P95MS float64 `json:"p95_ms"`
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// Stats snapshots the histogram aggregates (zero value on a nil receiver).
func (h *Histogram) Stats() PhaseStats {
	if h == nil {
		return PhaseStats{}
	}
	n := h.count.Load()
	if n == 0 {
		return PhaseStats{}
	}
	sum := h.sumNS.Load()
	return PhaseStats{
		Count:   n,
		TotalMS: ms(sum),
		MeanMS:  ms(sum) / float64(n),
		MinMS:   ms(h.minNS.Load()),
		MaxMS:   ms(h.maxNS.Load()),
		P95MS:   ms(h.quantileNS(0.95)),
	}
}

// Event is one notable occurrence worth keeping verbatim — a recovered
// panic's value and stack, a checkpoint anomaly — that counters alone cannot
// describe. Events live in a bounded ring (the most recent maxEvents are
// kept) and ship with the -metrics snapshot.
type Event struct {
	Time   time.Time `json:"time"`
	Name   string    `json:"name"`
	Detail string    `json:"detail"`
}

// maxEvents bounds the event ring; older events are dropped.
const maxEvents = 64

// Registry is a concurrency-safe metrics registry. Metric instruments are
// created on first use and live for the registry's lifetime, so callers may
// resolve them once and update through the returned pointer with pure atomic
// cost. A nil *Registry is the disabled observability layer: every method is
// a cheap no-op returning nil instruments, whose own methods are no-ops.
type Registry struct {
	mu        sync.RWMutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	phases    map[string]*Histogram
	events    []Event
	dropped   int64
	startedAt time.Time
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:  make(map[string]*Counter),
		gauges:    make(map[string]*Gauge),
		phases:    make(map[string]*Histogram),
		startedAt: time.Now(),
	}
}

// Counter returns the named counter, creating it if needed (nil on a nil
// registry).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed (nil on a nil
// registry).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Phase returns the named duration histogram, creating it if needed (nil on
// a nil registry).
func (r *Registry) Phase(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.phases[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.phases[name]; h == nil {
		h = &Histogram{}
		r.phases[name] = h
	}
	return h
}

// Event appends one event to the bounded ring, truncating oversized detail
// (panic stacks can be long) and dropping the oldest event when full. No-op
// on a nil registry.
func (r *Registry) Event(name, detail string) {
	if r == nil {
		return
	}
	const maxDetail = 4096
	if len(detail) > maxDetail {
		detail = detail[:maxDetail] + "... (truncated)"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.events) >= maxEvents {
		copy(r.events, r.events[1:])
		r.events = r.events[:maxEvents-1]
		r.dropped++
	}
	r.events = append(r.events, Event{Time: time.Now(), Name: name, Detail: detail})
}

// Events snapshots the event ring, oldest first (nil on a nil registry).
func (r *Registry) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// noopStop is the shared end-of-span function of the disabled path, so a nil
// registry's Span allocates nothing.
var noopStop = func() {}

// Span starts a timing span for the named phase and returns its stop
// function:
//
//	defer reg.Span("engine.search")()
//
// On a nil registry no clock is read and the shared no-op stop is returned.
func (r *Registry) Span(name string) func() {
	if r == nil {
		return noopStop
	}
	h := r.Phase(name)
	t0 := time.Now()
	return func() { h.Observe(time.Since(t0)) }
}

// Snapshot is a point-in-time export of a registry, the payload of the
// -metrics JSON dump.
type Snapshot struct {
	UptimeMS float64               `json:"uptime_ms"`
	Counters map[string]int64      `json:"counters,omitempty"`
	Gauges   map[string]int64      `json:"gauges,omitempty"`
	Phases   map[string]PhaseStats `json:"phases,omitempty"`
	// Events are the most recent notable events (recovered panics, journal
	// anomalies); DroppedEvents counts older ones evicted from the ring.
	Events        []Event `json:"events,omitempty"`
	DroppedEvents int64   `json:"dropped_events,omitempty"`
}

// Snapshot exports every registered metric (zero value on a nil registry).
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		UptimeMS: float64(time.Since(r.startedAt)) / 1e6,
		Counters: make(map[string]int64, len(r.counters)),
		Gauges:   make(map[string]int64, len(r.gauges)),
		Phases:   make(map[string]PhaseStats, len(r.phases)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.phases {
		s.Phases[name] = h.Stats()
	}
	if len(r.events) > 0 {
		s.Events = make([]Event, len(r.events))
		copy(s.Events, r.events)
		s.DroppedEvents = r.dropped
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteFile dumps the snapshot to a JSON file (the -metrics flag).
func (r *Registry) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("obs: %w", err)
	}
	return f.Close()
}

// defaultReg is the process-wide registry used by packages that cannot
// thread one through their signatures (c3p, halo, sim). It stays nil — the
// disabled fast path — until a CLI enables metrics.
var defaultReg atomic.Pointer[Registry]

// SetDefault installs the process-wide default registry (nil disables).
func SetDefault(r *Registry) { defaultReg.Store(r) }

// Time starts a span for the named phase on the default registry:
//
//	defer obs.Time("c3p.analyze")()
//
// With no default registry installed this is one atomic load, a branch and
// the shared no-op stop — safe on the hottest paths.
func Time(name string) func() {
	return defaultReg.Load().Span(name)
}
