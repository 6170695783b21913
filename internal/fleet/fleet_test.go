package fleet

// Coordinator and worker tests: end-to-end study execution over the real HTTP
// surface (byte-identical to a single-process run), bounded admission with
// Retry-After, drain semantics, journal replay after coordinator death, the
// retry circuit breaker, deadlines and worker liveness.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nnbaton/internal/ckpt"
	"nnbaton/internal/dse"
	"nnbaton/internal/engine"
	"nnbaton/internal/hardware"
	"nnbaton/internal/obs"
	"nnbaton/internal/workload"
)

var cm = hardware.MustCostModel()

// tinySpace/tinyModel mirror the dse test fixtures: a study small enough that
// an end-to-end fleet run finishes in well under a second of evaluation.
func tinySpace() dse.Space {
	return dse.Space{
		Vector:     []int{8},
		Lanes:      []int{8},
		Cores:      []int{2, 4, 8},
		Chiplets:   []int{1, 2, 4},
		OL1PerLane: []int{96, 144},
		AL1:        []int{1024, 4096},
		WL1:        []int{8192, 32768},
		AL2:        []int{32768, 65536},
	}
}

func tinyLayers() []workload.Layer {
	return []workload.Layer{
		{Model: "tiny", Name: "conv1", HO: 32, WO: 32, CO: 32, CI: 16,
			R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{Model: "tiny", Name: "conv2", HO: 16, WO: 16, CO: 64, CI: 32,
			R: 3, S: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
	}
}

// tinySpec is the fleet submission of the reference study.
func tinySpec(shards int) StudySpec {
	sp := tinySpace()
	return StudySpec{
		Model: "tiny", Res: 32, Layers: tinyLayers(),
		MACs: 512, AreaMM2: 3.0, Space: &sp, Shards: shards,
	}
}

// referenceBytes runs the study single-process and returns the canonical
// merged journal bytes every fleet execution must reproduce exactly.
func referenceBytes(t *testing.T, dir string) []byte {
	t.Helper()
	path := filepath.Join(dir, "single.jsonl")
	j, err := ckpt.OpenWith(path, ckpt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := tinySpec(1).ResolveModel()
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.NewFromConfig(cm, engine.Config{Journal: j})
	if _, err := dse.Explore(context.Background(), m, tinySpace(), 512, 3.0, eng); err != nil {
		t.Fatal(err)
	}
	j.Close()
	var buf bytes.Buffer
	if _, err := ckpt.MergeFiles(&buf, path); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// nextTask is NextTask's assignment alone.
func nextTask(c *Coordinator, worker string) (*Task, error) {
	p, err := c.NextTask(worker)
	return p.Task, err
}

func openCoord(t *testing.T, dir string, opts Options) *Coordinator {
	t.Helper()
	opts.DataDir = dir
	c, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestStudySpecValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*StudySpec)
		want string
	}{
		{"no model", func(s *StudySpec) { s.Model = ""; s.Layers = nil }, "model"},
		{"zero macs", func(s *StudySpec) { s.MACs = 0 }, "MAC budget"},
		{"negative area", func(s *StudySpec) { s.AreaMM2 = -1 }, "area"},
		{"negative shards", func(s *StudySpec) { s.Shards = -2 }, "shard"},
		{"negative deadline", func(s *StudySpec) { s.DeadlineSec = -5 }, "deadline"},
		{"unreachable macs", func(s *StudySpec) { s.MACs = 7 }, "no compute allocation"},
		{"unknown zoo model", func(s *StudySpec) { s.Model = "nonexistent"; s.Layers = nil }, "nonexistent"},
	}
	for _, c := range cases {
		spec := tinySpec(2)
		c.mut(&spec)
		err := spec.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want mention of %q", c.name, err, c.want)
		}
	}
	if err := tinySpec(2).Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

// TestFleetEndToEnd drives one worker through the real HTTP protocol: submit,
// schedule, shard-lease execution, merge — and the served result must be
// byte-identical to the single-process study.
func TestFleetEndToEnd(t *testing.T) {
	dir := t.TempDir()
	want := referenceBytes(t, dir)
	c := openCoord(t, dir, Options{WorkerTTL: 2 * time.Second})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	w, err := NewWorker(WorkerOptions{Coordinator: srv.URL, Name: "w1", EngineWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workerDone := make(chan error, 1)
	go func() { workerDone <- w.Run(ctx) }()

	body, _ := json.Marshal(tinySpec(2))
	resp, err := http.Post(srv.URL+"/v1/studies", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit = %d: %s", resp.StatusCode, raw)
	}
	var sub struct {
		ID string `json:"id"`
	}
	json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if sub.ID == "" {
		t.Fatal("submit returned no study ID")
	}

	st := waitState(t, c, sub.ID, StateDone, 30*time.Second)
	if st.ShardsDone != 2 {
		t.Errorf("shards done = %d, want 2", st.ShardsDone)
	}

	resp, err = http.Get(srv.URL + "/v1/studies/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result = %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("fleet result differs from single-process journal:\n%s\nvs\n%s", got, want)
	}

	// Drain shuts the worker down cleanly (nil, not a cancellation error).
	dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer dcancel()
	if err := c.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	select {
	case err := <-workerDone:
		if err != nil {
			t.Errorf("worker exit after drain = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("worker did not exit after drain")
	}
}

func waitState(t *testing.T, c *Coordinator, id string, want State, timeout time.Duration) StudyStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := c.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("study %s is %s (%s), want %s", id, st.State, st.Reason, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFleetQueueFull proves bounded admission: the queue limit rejects with a
// retryable error that the HTTP layer renders as 429 plus Retry-After.
func TestFleetQueueFull(t *testing.T) {
	c := openCoord(t, t.TempDir(), Options{QueueLimit: 1})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	if _, err := c.Submit(tinySpec(1)); err != nil {
		t.Fatal(err)
	}
	_, err := c.Submit(tinySpec(1))
	var re *RetryableError
	if !errors.As(err, &re) || !errors.Is(err, ErrQueueFull) {
		t.Fatalf("second submit = %v, want RetryableError(ErrQueueFull)", err)
	}
	if re.After <= 0 {
		t.Errorf("Retry-After hint = %v, want positive", re.After)
	}

	body, _ := json.Marshal(tinySpec(1))
	resp, err := http.Post(srv.URL+"/v1/studies", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("HTTP submit over limit = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After header = %q, want a positive delay", ra)
	}
}

// TestFleetDrainRejectsAndFinishes: during a drain with one in-flight task,
// new submissions answer 429, the in-flight worker is told to stop via its
// heartbeat, and the drain completes once the task reports out.
func TestFleetDrainRejectsAndFinishes(t *testing.T) {
	c := openCoord(t, t.TempDir(), Options{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	if _, err := c.RegisterWorker("busy"); err != nil {
		t.Fatal(err)
	}
	id, err := c.Submit(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	task, err := nextTask(c, "busy")
	if err != nil || task == nil {
		t.Fatalf("NextTask = %v, %v; want a task", task, err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	drainErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainErr <- c.Drain(ctx)
	}()

	// Wait until the drain flag is visible, then prove the three surfaces:
	// submissions 429, readiness 503, heartbeat says drain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := c.Ready(); errors.Is(err, ErrDraining) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drain flag never became visible")
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, err = c.Submit(tinySpec(1))
	var re *RetryableError
	if !errors.As(err, &re) || !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain = %v, want RetryableError(ErrDraining)", err)
	}
	body, _ := json.Marshal(tinySpec(1))
	resp, err := http.Post(srv.URL+"/v1/studies", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("HTTP submit during drain = %d, want 429", resp.StatusCode)
	}
	abandon, drain, err := c.Heartbeat("busy", id)
	if err != nil || abandon || !drain {
		t.Errorf("heartbeat during drain = (%v,%v,%v), want (false,true,nil)", abandon, drain, err)
	}

	// The worker checkpoints out and reports aborted; the drain completes.
	if err := c.ReportDone("busy", Report{Study: id, Aborted: true}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := <-drainErr; err != nil {
		t.Fatalf("drain = %v", err)
	}
	if err := c.Healthy(); !errors.Is(err, ErrClosed) {
		t.Errorf("Healthy after drain = %v, want ErrClosed", err)
	}
}

// TestFleetCrashRecovery kills the coordinator (Close without drain, the
// in-process stand-in for SIGKILL plus restart) mid-study and proves the
// journal replay re-queues it, after which a worker completes it with the
// byte-identical merged result.
func TestFleetCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	want := referenceBytes(t, dir)

	// Life 1: admit two studies, assign one, then die without cleanup. Fsync
	// on: the journal must survive an unclean death.
	c1 := openCoord(t, dir, Options{NoFsync: false})
	if _, err := c1.RegisterWorker("w"); err != nil {
		t.Fatal(err)
	}
	id1, err := c1.Submit(tinySpec(2))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := c1.Submit(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if task, err := nextTask(c1, "w"); err != nil || task == nil || task.Study != id1 {
		t.Fatalf("NextTask = %+v, %v; want study %s", task, err, id1)
	}
	if err := c1.Cancel(id2); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	// Life 2: replay. The running study is re-queued with the recovery
	// reason; the cancelled one stays terminal; the ID sequence advances.
	c2 := openCoord(t, dir, Options{WorkerTTL: 2 * time.Second})
	st, err := c2.Status(id1)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued || !strings.Contains(st.Reason, "recovered") {
		t.Fatalf("replayed study = %s (%q), want queued with recovery reason", st.State, st.Reason)
	}
	if st, err := c2.Status(id2); err != nil || st.State != StateCancelled {
		t.Fatalf("cancelled study after replay = %+v, %v; want cancelled", st, err)
	}
	if id3, err := c2.Submit(tinySpec(1)); err != nil || id3 == id1 || id3 == id2 {
		t.Fatalf("post-replay submit = %q, %v; want a fresh ID", id3, err)
	}

	// A real worker finishes the recovered study; merged bytes match the
	// uninterrupted single-process run.
	srv := httptest.NewServer(c2.Handler())
	defer srv.Close()
	w, err := NewWorker(WorkerOptions{Coordinator: srv.URL, Name: "w", EngineWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go w.Run(ctx) //nolint:errcheck — cancelled at test end

	waitState(t, c2, id1, StateDone, 30*time.Second)
	path, err := c2.ResultPath(id1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("recovered study result differs from single-process journal:\n%s\nvs\n%s", got, want)
	}
}

// TestFleetQuarantine is the circuit breaker: repeated task failures re-queue
// with growing backoff until the retry limit, then quarantine with the reason
// on record. Aborts never count against the breaker.
func TestFleetQuarantine(t *testing.T) {
	now := time.Unix(1700000000, 0)
	clock := func() time.Time { return now }
	c := openCoord(t, t.TempDir(), Options{RetryLimit: 2, RetryBackoff: time.Second, Now: clock})
	if _, err := c.RegisterWorker("w"); err != nil {
		t.Fatal(err)
	}
	id, err := c.Submit(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}

	for attempt := 1; ; attempt++ {
		task, err := nextTask(c, "w")
		if err != nil {
			t.Fatal(err)
		}
		if task == nil {
			// Retry backoff gates the re-queue; advancing the clock (not
			// sleeping) makes it schedulable again.
			now = now.Add(time.Minute)
			continue
		}
		// An abort first: must not advance the failure count.
		if attempt == 1 {
			if err := c.ReportDone("w", Report{Study: id, Aborted: true}); err != nil {
				t.Fatal(err)
			}
			st, _ := c.Status(id)
			if st.Failures != 0 {
				t.Fatalf("failures after abort = %d, want 0", st.Failures)
			}
			continue
		}
		if err := c.ReportDone("w", Report{Study: id, Err: "synthetic shard failure"}); err != nil {
			t.Fatal(err)
		}
		st, _ := c.Status(id)
		if st.State == StateQuarantined {
			if st.Failures != 3 {
				t.Errorf("quarantined after %d failures, want 3 (limit 2 + 1)", st.Failures)
			}
			if !strings.Contains(st.Reason, "synthetic shard failure") {
				t.Errorf("quarantine reason %q does not carry the last error", st.Reason)
			}
			break
		}
		if st.State != StateQueued || !strings.Contains(st.Reason, "retry") {
			t.Fatalf("after failure %d: state %s (%q), want queued retry", st.Failures, st.State, st.Reason)
		}
		if attempt > 10 {
			t.Fatal("never quarantined")
		}
	}
	// Quarantined studies are never scheduled again.
	if task, err := nextTask(c, "w"); err != nil || task != nil {
		t.Errorf("NextTask after quarantine = %+v, %v; want nil", task, err)
	}
}

// TestFleetRetryBackoffDoubles pins the bounded doubling schedule.
func TestFleetRetryBackoffDoubles(t *testing.T) {
	c := openCoord(t, t.TempDir(), Options{RetryBackoff: time.Second})
	want := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second}
	for i, w := range want {
		if got := c.retryBackoff(i + 1); got != w {
			t.Errorf("retryBackoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	if got := c.retryBackoff(50); got != maxRetryBackoff {
		t.Errorf("retryBackoff(50) = %v, want cap %v", got, maxRetryBackoff)
	}
}

// TestFleetDeadline: a study past its deadline fails on the janitor sweep,
// queue wait included.
func TestFleetDeadline(t *testing.T) {
	now := time.Unix(1700000000, 0)
	clock := func() time.Time { return now }
	// Janitor effectively disabled; sweeps are driven by hand.
	c := openCoord(t, t.TempDir(), Options{JanitorEvery: time.Hour, Now: clock})
	spec := tinySpec(1)
	spec.DeadlineSec = 5
	id, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(4 * time.Second)
	c.sweep()
	if st, _ := c.Status(id); st.State != StateQueued {
		t.Fatalf("state before deadline = %s, want queued", st.State)
	}
	now = now.Add(2 * time.Second)
	c.sweep()
	st, _ := c.Status(id)
	if st.State != StateFailed || !strings.Contains(st.Reason, "deadline") {
		t.Errorf("state after deadline = %s (%q), want failed with deadline reason", st.State, st.Reason)
	}
}

// TestFleetWorkerExpiry: a worker whose heartbeats stop is expired and must
// re-register; its study assignment is released.
func TestFleetWorkerExpiry(t *testing.T) {
	now := time.Unix(1700000000, 0)
	clock := func() time.Time { return now }
	c := openCoord(t, t.TempDir(), Options{WorkerTTL: 10 * time.Second, JanitorEvery: time.Hour, Now: clock})
	if _, err := c.RegisterWorker("w"); err != nil {
		t.Fatal(err)
	}
	id, err := c.Submit(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if task, err := nextTask(c, "w"); err != nil || task == nil {
		t.Fatalf("NextTask = %v, %v", task, err)
	}
	if st, _ := c.Status(id); len(st.Workers) != 1 {
		t.Fatalf("workers on study = %v, want [w]", st.Workers)
	}

	now = now.Add(11 * time.Second)
	c.sweep()
	if _, _, err := c.Heartbeat("w", id); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("heartbeat after expiry = %v, want ErrUnknownWorker", err)
	}
	if st, _ := c.Status(id); len(st.Workers) != 0 {
		t.Errorf("workers on study after expiry = %v, want none", st.Workers)
	}
	// Re-registration heals it.
	if _, err := c.RegisterWorker("w"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Heartbeat("w", id); err != nil {
		t.Errorf("heartbeat after re-register = %v", err)
	}
}

// TestFleetHeartbeatAbandon: a heartbeat naming a no-longer-running study
// tells the worker to abandon it.
func TestFleetHeartbeatAbandon(t *testing.T) {
	c := openCoord(t, t.TempDir(), Options{})
	if _, err := c.RegisterWorker("w"); err != nil {
		t.Fatal(err)
	}
	id, err := c.Submit(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if task, err := nextTask(c, "w"); err != nil || task == nil {
		t.Fatalf("NextTask = %v, %v", task, err)
	}
	if abandon, _, _ := c.Heartbeat("w", id); abandon {
		t.Error("abandon for a running study = true, want false")
	}
	if err := c.Cancel(id); err != nil {
		t.Fatal(err)
	}
	if abandon, _, _ := c.Heartbeat("w", id); !abandon {
		t.Error("abandon for a cancelled study = false, want true")
	}
}

// TestFleetHealthEndpoints wires the probes to real internal state: healthz
// follows journal health and closure, readyz additionally follows draining.
func TestFleetHealthEndpoints(t *testing.T) {
	c := openCoord(t, t.TempDir(), Options{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	get := func(path string) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("healthz = %d, want 200", got)
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Errorf("readyz = %d, want 200", got)
	}

	// Draining: not ready, still alive.
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("healthz while draining = %d, want 200", got)
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining = %d, want 503", got)
	}

	// A latched journal failure is fatal to liveness.
	c.mu.Lock()
	c.journalErr = errors.New("disk gone")
	c.mu.Unlock()
	if got := get("/healthz"); got != http.StatusServiceUnavailable {
		t.Errorf("healthz with journal error = %d, want 503", got)
	}
}

// TestFleetHTTPValidation: malformed and unknown-field submissions answer
// 400, unknown studies 404, results of unfinished studies 409.
func TestFleetHTTPValidation(t *testing.T) {
	c := openCoord(t, t.TempDir(), Options{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	post := func(body string) int {
		resp, err := http.Post(srv.URL+"/v1/studies", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post("{not json"); got != http.StatusBadRequest {
		t.Errorf("malformed submit = %d, want 400", got)
	}
	if got := post(`{"model":"tiny","macs":512,"typo_field":1}`); got != http.StatusBadRequest {
		t.Errorf("unknown-field submit = %d, want 400", got)
	}
	if got := post(`{"model":"tiny","macs":0}`); got != http.StatusBadRequest {
		t.Errorf("invalid spec = %d, want 400", got)
	}

	resp, _ := http.Get(srv.URL + "/v1/studies/s999999")
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown study status = %d, want 404", resp.StatusCode)
	}

	id, err := c.Submit(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	resp, _ = http.Get(srv.URL + "/v1/studies/" + id + "/result")
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("result of a queued study = %d, want 409", resp.StatusCode)
	}
}

// TestFleetMaxConcurrent: promotion honors the running-studies bound; the
// queue drains in admission order as studies finish.
func TestFleetMaxConcurrent(t *testing.T) {
	c := openCoord(t, t.TempDir(), Options{MaxConcurrent: 1})
	for _, w := range []string{"a", "b"} {
		if _, err := c.RegisterWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	id1, err := c.Submit(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := c.Submit(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	t1, err := nextTask(c, "a")
	if err != nil || t1 == nil || t1.Study != id1 {
		t.Fatalf("first task = %+v, %v; want %s", t1, err, id1)
	}
	// With one running study allowed, the second worker joins the same study
	// instead of promoting the next.
	t2, err := nextTask(c, "b")
	if err != nil || t2 == nil || t2.Study != id1 {
		t.Fatalf("second task = %+v, %v; want %s again", t2, err, id1)
	}
	if st, _ := c.Status(id2); st.State != StateQueued {
		t.Errorf("second study = %s, want still queued", st.State)
	}
}

// fakeClock is a settable Options.Now that is safe to read from the
// goroutines a test starts.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1700000000, 0)} }

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

// heldWait starts c.Wait(ctx, worker, gen), requires it to still be held
// after 30 ms, runs trigger, and requires the wait to end within 250 ms —
// half the 500 ms hold, so a lost wake fails it. It returns Wait's error.
func heldWait(t *testing.T, c *Coordinator, ctx context.Context, worker string, gen uint64, name string, trigger func()) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- c.Wait(ctx, worker, gen) }()
	select {
	case err := <-done:
		t.Fatalf("%s: wait at the current generation returned before the trigger: %v", name, err)
	case <-time.After(30 * time.Millisecond):
	}
	trigger()
	select {
	case err := <-done:
		return err
	case <-time.After(250 * time.Millisecond):
		t.Fatalf("%s: held wait not woken within 250ms", name)
		return nil
	}
}

// TestFleetWait pins the idle worker's wait: a stale generation answers at
// once, the current one is held until a schedule change — a submission, an
// aborted report, the end of a retry backoff, a drain — or the close of the
// coordinator or the caller's context; an unknown worker is refused.
func TestFleetWait(t *testing.T) {
	clock := newFakeClock()
	c := openCoord(t, t.TempDir(), Options{RetryBackoff: time.Second, JanitorEvery: time.Hour, Now: clock.Now})
	for _, w := range []string{"a", "b"} {
		if _, err := c.RegisterWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	if err := c.Wait(ctx, "ghost", 0); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("wait of an unknown worker = %v, want ErrUnknownWorker", err)
	}
	poll := func(w string, wantTask bool) TaskAnswer {
		t.Helper()
		p, err := c.NextTask(w)
		if err != nil || (p.Task != nil) != wantTask {
			t.Fatalf("NextTask(%s) = %+v, %v; want task: %v", w, p, err, wantTask)
		}
		return p
	}

	idle := poll("b", false)
	t0 := time.Now()
	if err := c.Wait(ctx, "b", idle.Gen+1); err != nil || time.Since(t0) > 100*time.Millisecond {
		t.Fatalf("wait at a stale generation = %v after %v, want nil at once", err, time.Since(t0))
	}

	var id string
	if err := heldWait(t, c, ctx, "b", idle.Gen, "submit", func() {
		var err error
		if id, err = c.Submit(tinySpec(1)); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}

	// The poll that promotes a study answers the generation after its own
	// promotion, so its waiter is not woken by it.
	assigned := poll("a", true)
	if err := heldWait(t, c, ctx, "b", assigned.Gen, "aborted report", func() {
		if err := c.ReportDone("a", Report{Study: id, Aborted: true}); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}

	poll("a", true)
	if err := c.ReportDone("a", Report{Study: id, Err: "synthetic shard failure"}); err != nil {
		t.Fatal(err)
	}
	backoff := poll("b", false) // in retry backoff: nothing schedulable
	if err := heldWait(t, c, ctx, "b", backoff.Gen, "backoff expiry", func() {
		clock.Advance(2 * time.Second)
		c.sweep()
	}); err != nil {
		t.Fatal(err)
	}

	busy := poll("a", true)
	drained := make(chan error, 1)
	if err := heldWait(t, c, ctx, "b", busy.Gen, "drain", func() {
		go func() { drained <- c.Drain(ctx) }()
	}); err != nil {
		t.Fatal(err)
	}
	// Drain waits for the busy worker's report, and that report wakes it.
	time.Sleep(30 * time.Millisecond)
	select {
	case err := <-drained:
		t.Fatalf("drain returned with a worker still busy: %v", err)
	default:
	}
	if err := c.ReportDone("a", Report{Study: id, Aborted: true}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain = %v", err)
		}
	case <-time.After(250 * time.Millisecond):
		t.Fatal("drain not woken by the last report")
	}

	c2 := openCoord(t, t.TempDir(), Options{})
	if _, err := c2.RegisterWorker("b"); err != nil {
		t.Fatal(err)
	}
	p, err := c2.NextTask("b")
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithCancel(ctx)
	if err := heldWait(t, c2, wctx, "b", p.Gen, "context cancel", cancel); err != nil {
		t.Fatal(err)
	}
	if err := heldWait(t, c2, ctx, "b", p.Gen, "close", func() { c2.Close() }); err != nil {
		t.Fatal(err)
	}
	if err := c2.Wait(ctx, "b", p.Gen); !errors.Is(err, ErrClosed) {
		t.Fatalf("wait on a closed coordinator = %v, want ErrClosed", err)
	}
}

// TestFleetIdleWorkerWakesOnSubmit runs a real worker with the default
// 500 ms poll: idle, it makes at most one task poll and one wait per hold,
// and a study submitted right after one of its empty polls is assigned
// within 100 ms.
func TestFleetIdleWorkerWakesOnSubmit(t *testing.T) {
	c := openCoord(t, t.TempDir(), Options{})
	var mu sync.Mutex
	calls := map[string]int{}
	polled := make(chan struct{}, 1)
	h := c.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(rw, r)
		mu.Lock()
		calls[filepath.Base(r.URL.Path)]++
		mu.Unlock()
		if strings.HasSuffix(r.URL.Path, "/task") {
			select {
			case polled <- struct{}{}:
			default:
			}
		}
	}))
	defer srv.Close()
	count := func(route string) int {
		mu.Lock()
		defer mu.Unlock()
		return calls[route]
	}
	nextPoll := func() {
		t.Helper()
		select {
		case <-polled:
		default:
		}
		select {
		case <-polled:
		case <-time.After(5 * time.Second):
			t.Fatal("worker made no task poll within 5s")
		}
	}

	w, err := NewWorker(WorkerOptions{Coordinator: srv.URL, Name: "w", EngineWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	defer func() { cancel(); <-done }()

	nextPoll()
	tasks, waits := count("task"), count("wait")
	time.Sleep(time.Second)
	if n, m := count("task")-tasks, count("wait")-waits; n > 4 || m > 4 {
		t.Errorf("idle worker made %d task polls and %d waits in 1s, want at most 4 each", n, m)
	}

	nextPoll()
	t0 := time.Now()
	id, err := c.Submit(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	for {
		st, err := c.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Workers) > 0 || st.State.Terminal() {
			break
		}
		if time.Since(t0) > 100*time.Millisecond {
			t.Fatalf("study not assigned %v after its submission", time.Since(t0))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFleetStudyTimeline pins the timeline fields with a fake clock: Started
// is the current run's first assignment (a retry starts a new run, a second
// worker does not), Finished the terminal transition, and
// fleet.dispatch_wait runs from admission or the end of a backoff to the
// run's first assignment.
func TestFleetStudyTimeline(t *testing.T) {
	clock := newFakeClock()
	t0 := clock.Now()
	reg := obs.NewRegistry()
	c := openCoord(t, t.TempDir(), Options{RetryBackoff: time.Second, JanitorEvery: time.Hour, Now: clock.Now, Registry: reg})
	for _, w := range []string{"a", "b"} {
		if _, err := c.RegisterWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	id, err := c.Submit(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string, started, finished time.Time, waits int64, waitMS float64) {
		t.Helper()
		st, err := c.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if !sameTime(st.Started, started) || !sameTime(st.Finished, finished) {
			t.Errorf("%s: started %v finished %v, want %v and %v", when, st.Started, st.Finished, started, finished)
		}
		if ps := reg.Phase("fleet.dispatch_wait").Stats(); ps.Count != waits || ps.TotalMS != waitMS {
			t.Errorf("%s: dispatch_wait count %d total %vms, want %d and %vms", when, ps.Count, ps.TotalMS, waits, waitMS)
		}
	}
	var zero time.Time
	check("queued", zero, zero, 0, 0)

	clock.Advance(3 * time.Second)
	if task, err := nextTask(c, "a"); err != nil || task == nil {
		t.Fatalf("NextTask = %v, %v", task, err)
	}
	check("assigned", t0.Add(3*time.Second), zero, 1, 3000)

	clock.Advance(time.Second) // fails at t0+4s; backoff ends at t0+5s
	if err := c.ReportDone("a", Report{Study: id, Err: "synthetic shard failure"}); err != nil {
		t.Fatal(err)
	}
	check("re-queued", zero, zero, 1, 3000)

	clock.Advance(4 * time.Second)
	if task, err := nextTask(c, "a"); err != nil || task == nil {
		t.Fatalf("NextTask after backoff = %v, %v", task, err)
	}
	if task, err := nextTask(c, "b"); err != nil || task == nil || task.Study != id {
		t.Fatalf("second worker's NextTask = %v, %v", task, err)
	}
	check("retried", t0.Add(8*time.Second), zero, 2, 6000)

	clock.Advance(2 * time.Second)
	if err := c.Cancel(id); err != nil {
		t.Fatal(err)
	}
	check("cancelled", t0.Add(8*time.Second), t0.Add(10*time.Second), 2, 6000)
}

// sameTime reports whether a status timestamp is want: nil for the zero
// time, set and equal otherwise.
func sameTime(got *time.Time, want time.Time) bool {
	if got == nil {
		return want.IsZero()
	}
	return !want.IsZero() && got.Equal(want)
}

// TestFleetStatusOmitsUnsetTimes: the status JSON carries no deadline,
// started or finished key until the study has one, and a finished study
// reports when it started and finished.
func TestFleetStatusOmitsUnsetTimes(t *testing.T) {
	c := openCoord(t, t.TempDir(), Options{WorkerTTL: 2 * time.Second})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	id, err := c.Submit(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	status := func() map[string]json.RawMessage {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/studies/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var keys map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&keys); err != nil {
			t.Fatal(err)
		}
		return keys
	}
	queued := status()
	for _, k := range []string{"deadline", "started", "finished"} {
		if v, ok := queued[k]; ok {
			t.Errorf("queued study without a deadline has %q: %s", k, v)
		}
	}
	if _, ok := queued["admitted"]; !ok {
		t.Error("queued study has no admitted time")
	}

	w, err := NewWorker(WorkerOptions{Coordinator: srv.URL, Name: "w1", EngineWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	workerDone := make(chan error, 1)
	go func() { workerDone <- w.Run(ctx) }()
	defer func() { cancel(); <-workerDone }()
	waitState(t, c, id, StateDone, 30*time.Second)

	done := status()
	var started, finished time.Time
	for k, dst := range map[string]*time.Time{"started": &started, "finished": &finished} {
		raw, ok := done[k]
		if !ok {
			t.Fatalf("done study has no %q", k)
		}
		if err := json.Unmarshal(raw, dst); err != nil || dst.IsZero() {
			t.Fatalf("done study %q = %s (%v)", k, raw, err)
		}
	}
	if finished.Before(started) {
		t.Errorf("finished %v before started %v", finished, started)
	}
	if v, ok := done["deadline"]; ok {
		t.Errorf("done study without a deadline has deadline %s", v)
	}
}
