package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Counter("c").Add(5)
	r.Counter("c").Inc()
	r.Gauge("g").Set(3)
	r.Gauge("g").Add(-1)
	r.Phase("p").Observe(time.Millisecond)
	stop := r.Span("p")
	stop()
	if got := r.Counter("c").Value(); got != 0 {
		t.Errorf("nil counter value = %d", got)
	}
	if got := r.Gauge("g").Value(); got != 0 {
		t.Errorf("nil gauge value = %d", got)
	}
	if st := r.Phase("p").Stats(); st.Count != 0 {
		t.Errorf("nil histogram stats = %+v", st)
	}
	if s := r.Snapshot(); s.Counters != nil || s.Phases != nil {
		t.Errorf("nil snapshot = %+v", s)
	}
	// The nil Span must not allocate.
	if n := testing.AllocsPerRun(100, func() { r.Span("p")() }); n != 0 {
		t.Errorf("nil Span allocates %.0f objects per call", n)
	}
	ran := false
	r.Phase("p").Time(func() { ran = true })
	if !ran {
		t.Error("nil Histogram.Time skipped f")
	}
}

func TestCountersGaugesPhases(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("engine.lookups")
	c.Add(2)
	c.Inc()
	if c.Value() != 3 {
		t.Errorf("counter = %d, want 3", c.Value())
	}
	if r.Counter("engine.lookups") != c {
		t.Error("counter not memoized by name")
	}
	g := r.Gauge("inflight")
	g.Set(10)
	g.Add(-4)
	if g.Value() != 6 {
		t.Errorf("gauge = %d, want 6", g.Value())
	}
	h := r.Phase("search")
	h.Observe(2 * time.Millisecond)
	h.Observe(4 * time.Millisecond)
	h.Observe(6 * time.Millisecond)
	st := h.Stats()
	if st.Count != 3 {
		t.Errorf("count = %d, want 3", st.Count)
	}
	if st.TotalMS < 11.9 || st.TotalMS > 12.1 {
		t.Errorf("total = %.3f ms, want ~12", st.TotalMS)
	}
	if st.MinMS > st.MeanMS || st.MeanMS > st.MaxMS {
		t.Errorf("min/mean/max out of order: %+v", st)
	}
	if st.P95MS < st.MaxMS {
		t.Errorf("p95 upper bound %.3f below max %.3f", st.P95MS, st.MaxMS)
	}
}

func TestSpanRecords(t *testing.T) {
	r := NewRegistry()
	stop := r.Span("phase")
	time.Sleep(time.Millisecond)
	stop()
	st := r.Phase("phase").Stats()
	if st.Count != 1 || st.TotalMS <= 0 {
		t.Errorf("span did not record: %+v", st)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Phase("p").Observe(time.Duration(j) * time.Microsecond)
				r.Gauge("g").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 16000 {
		t.Errorf("counter = %d, want 16000", got)
	}
	if st := r.Phase("p").Stats(); st.Count != 16000 {
		t.Errorf("histogram count = %d, want 16000", st.Count)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("engine.searches").Add(7)
	r.Gauge("cache.entries").Set(3)
	r.Phase("engine.search").Observe(5 * time.Millisecond)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if s.Counters["engine.searches"] != 7 {
		t.Errorf("counters = %v", s.Counters)
	}
	if s.Gauges["cache.entries"] != 3 {
		t.Errorf("gauges = %v", s.Gauges)
	}
	if s.Phases["engine.search"].Count != 1 {
		t.Errorf("phases = %v", s.Phases)
	}
}

func TestWriteFile(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	path := t.TempDir() + "/metrics.json"
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["c"] != 1 {
		t.Errorf("file snapshot = %+v", s)
	}
}

func TestDefaultRegistry(t *testing.T) {
	if defaultReg.Load() != nil {
		t.Fatal("default registry must start nil")
	}
	// Disabled: Time is allocation-free.
	if n := testing.AllocsPerRun(100, func() { Time("x")() }); n != 0 {
		t.Errorf("disabled Time allocates %.0f objects per call", n)
	}
	r := NewRegistry()
	SetDefault(r)
	defer SetDefault(nil)
	Time("global.phase")()
	if st := r.Phase("global.phase").Stats(); st.Count != 1 {
		t.Errorf("default-registry span not recorded: %+v", st)
	}
}

func TestTracker(t *testing.T) {
	var mu sync.Mutex
	var events []Progress
	sink := sinkFunc(func(p Progress) {
		mu.Lock()
		events = append(events, p)
		mu.Unlock()
	})
	tr := NewTracker(sink, "sweep", 3)
	tr.Done(nil)
	tr.Done(errors.New("unmappable"))
	tr.Done(nil)
	mu.Lock()
	defer mu.Unlock()
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	last := events[len(events)-1]
	if last.Done != 3 || last.Total != 3 || last.Failed != 1 {
		t.Errorf("final event = %+v", last)
	}
	if got := last.String(); !strings.Contains(got, "3/3") || !strings.Contains(got, "1 failed") {
		t.Errorf("final event string = %q", got)
	}
}

func TestTrackerRateLimit(t *testing.T) {
	var mu sync.Mutex
	n := 0
	sink := sinkFunc(func(Progress) { mu.Lock(); n++; mu.Unlock() })
	tr := NewTracker(sink, "sweep", 1000)
	tr.lastEmit.Store(time.Now().UnixNano()) // pretend we just emitted
	for i := 0; i < 999; i++ {
		tr.Done(nil)
	}
	mu.Lock()
	mid := n
	mu.Unlock()
	if mid != 0 {
		t.Errorf("rate limit let %d mid-sweep events through a fresh window", mid)
	}
	tr.Done(nil) // final event always fires
	mu.Lock()
	defer mu.Unlock()
	if n != 1 {
		t.Errorf("final event count = %d, want 1", n)
	}
}

func TestNilTracker(t *testing.T) {
	tr := NewTracker(nil, "sweep", 10)
	if tr != nil {
		t.Fatal("nil sink must give a nil tracker")
	}
	tr.Done(nil) // must not panic
	tr.Done(errors.New("x"))
}

func TestWriterSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewWriterSink(&buf)
	s.Progress(Progress{Stage: "explore", Done: 5, Total: 63, Failed: 2, ETA: 30 * time.Second})
	if got := buf.String(); !strings.Contains(got, "explore: 5/63") || !strings.Contains(got, "2 failed") {
		t.Errorf("writer sink output = %q", got)
	}
}

func TestServePprof(t *testing.T) {
	addr, err := ServePprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status = %d", resp.StatusCode)
	}
}

// sinkFunc adapts a function to ProgressSink.
type sinkFunc func(Progress)

func (f sinkFunc) Progress(p Progress) { f(p) }

func TestEventRing(t *testing.T) {
	r := NewRegistry()
	r.Event("panic.engine.search", "conv3: boom\nstack...")
	evts := r.Events()
	if len(evts) != 1 || evts[0].Name != "panic.engine.search" || evts[0].Time.IsZero() {
		t.Fatalf("events = %+v", evts)
	}
	// Oversized detail truncates instead of bloating the snapshot.
	big := strings.Repeat("x", 10000)
	r.Event("big", big)
	evts = r.Events()
	if len(evts[1].Detail) >= 10000 || !strings.HasSuffix(evts[1].Detail, "(truncated)") {
		t.Errorf("detail not truncated: %d bytes", len(evts[1].Detail))
	}
	// The ring is bounded: oldest events drop and are counted.
	for i := 0; i < 100; i++ {
		r.Event("spam", "d")
	}
	snap := r.Snapshot()
	if len(snap.Events) != 64 {
		t.Errorf("ring holds %d events, want 64", len(snap.Events))
	}
	if snap.DroppedEvents != 38 { // 102 emitted - 64 retained
		t.Errorf("dropped = %d, want 38", snap.DroppedEvents)
	}
	// Nil registry: inert.
	var nilReg *Registry
	nilReg.Event("x", "y")
	if nilReg.Events() != nil {
		t.Error("nil registry must report no events")
	}
}

func TestTrackerReplayedAndLastErr(t *testing.T) {
	var mu sync.Mutex
	var events []Progress
	sink := sinkFunc(func(p Progress) {
		mu.Lock()
		events = append(events, p)
		mu.Unlock()
	})
	tr := NewTracker(sink, "sweep", 3)
	tr.Replayed(nil)
	tr.Done(errors.New("no valid mapping for conv9"))
	tr.Done(nil)
	mu.Lock()
	last := events[len(events)-1]
	mu.Unlock()
	if last.Replayed != 1 || last.Failed != 1 {
		t.Fatalf("progress = %+v", last)
	}
	if last.LastErr != "no valid mapping for conv9" {
		t.Errorf("LastErr = %q", last.LastErr)
	}
	s := last.String()
	for _, want := range []string{"1 replayed", "1 failed", "conv9"} {
		if !strings.Contains(s, want) {
			t.Errorf("line %q missing %q", s, want)
		}
	}
	// A journaled failure replays as a failure.
	tr2 := NewTracker(sink, "sweep", 1)
	tr2.Replayed(errors.New("replayed failure"))
	mu.Lock()
	last = events[len(events)-1]
	mu.Unlock()
	if last.Failed != 1 || last.Replayed != 1 {
		t.Errorf("replayed failure progress = %+v", last)
	}
}
