package fleet

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"nnbaton/internal/ckpt"
	"nnbaton/internal/lease"
	"nnbaton/internal/obs"
)

// Options tunes a Coordinator. The zero value of every field has a sane
// production default; only DataDir is required.
type Options struct {
	// DataDir is the coordinator's durable root: the study journal, one
	// directory per study (worker journals, lease files, merged result) and
	// the shared persistent result cache all live under it. Workers must see
	// the same directory (shared filesystem), the same contract the sharded
	// sweep substrate already has.
	DataDir string

	// QueueLimit bounds the admission queue (studies in Queued state); a
	// full queue rejects submissions with ErrQueueFull → HTTP 429. <=0 uses
	// DefaultQueueLimit.
	QueueLimit int
	// MaxConcurrent bounds simultaneously Running studies. <=0 uses
	// DefaultMaxConcurrent.
	MaxConcurrent int
	// RetryLimit is the circuit breaker: a study whose shard execution is
	// reported failed more than this many times is quarantined with the
	// last reason recorded — never retried forever. <=0 uses
	// DefaultRetryLimit.
	RetryLimit int
	// RetryBackoff delays a failed study's re-queue, doubling per failure
	// (capped at 30s), following the engine's bounded-backoff convention.
	// <=0 uses DefaultRetryBackoff.
	RetryBackoff time.Duration
	// DefaultDeadline bounds studies that submit no deadline of their own;
	// 0 means such studies never expire.
	DefaultDeadline time.Duration
	// WorkerTTL is how long a registered worker survives without a
	// heartbeat before it is expired from the registry. <=0 uses
	// DefaultWorkerTTL.
	WorkerTTL time.Duration
	// LeaseTTL is the shard lease time-to-live handed to workers: a dead
	// worker's shard is reclaimed by a peer after this long without a
	// heartbeat on the lease file. <=0 uses lease.DefaultTTL.
	LeaseTTL time.Duration
	// JanitorEvery is the period of the background sweep that expires dead
	// workers and enforces study deadlines. <=0 uses DefaultJanitorEvery.
	JanitorEvery time.Duration
	// NoFsync turns off fsync-per-record on the study journal. Admission
	// and state transitions are rare, so the default (fsync on) costs
	// nothing measurable and survives OS crashes, not just killed
	// coordinators.
	NoFsync bool

	// Registry receives the fleet's metrics (nil disables observation).
	Registry *obs.Registry
	// Now overrides the wall clock for deadline and liveness decisions
	// (tests); nil uses time.Now.
	Now func() time.Time
}

// Defaults for Options.
const (
	DefaultQueueLimit    = 64
	DefaultMaxConcurrent = 2
	DefaultRetryLimit    = 3
	DefaultRetryBackoff  = 500 * time.Millisecond
	DefaultWorkerTTL     = 15 * time.Second
	DefaultJanitorEvery  = 100 * time.Millisecond
	maxRetryBackoff      = 30 * time.Second
)

// Sentinel errors of the admission and scheduling surface; the HTTP layer
// maps them onto status codes.
var (
	// ErrQueueFull rejects a submission because the bounded admission queue
	// is at capacity (HTTP 429 with Retry-After).
	ErrQueueFull = errors.New("fleet: admission queue is full")
	// ErrDraining rejects work because the coordinator is shutting down
	// (submissions answer 429: the service is alive but shedding load).
	ErrDraining = errors.New("fleet: coordinator is draining")
	// ErrClosed reports an operation on a closed coordinator.
	ErrClosed = errors.New("fleet: coordinator is closed")
	// ErrUnknownStudy reports an ID with no study (HTTP 404).
	ErrUnknownStudy = errors.New("fleet: unknown study")
	// ErrUnknownWorker reports an unregistered (or expired) worker; the
	// worker must re-register (HTTP 404).
	ErrUnknownWorker = errors.New("fleet: unknown worker")
)

// study is the coordinator's in-memory view of one admitted study; the
// journal holds its durable shadow.
type study struct {
	id       string
	spec     StudySpec
	admitted time.Time
	state    State
	reason   string
	failures int
	// nextAttempt is when the study last became schedulable: admission,
	// the coordinator's restart, or the end of a retry backoff. The study is
	// not schedulable before it.
	nextAttempt time.Time
	// started is when the current run was first assigned a worker (zero
	// before that); finished is when the study reached a terminal state.
	// Both are observability only and are not journaled.
	started, finished time.Time
	// workers is the set of worker names currently assigned to the study.
	workers map[string]bool
}

// deadlineAt returns the absolute deadline, or zero when none applies.
func (s *study) deadlineAt(def time.Duration) time.Time {
	d := s.spec.deadline(def)
	if d <= 0 {
		return time.Time{}
	}
	return s.admitted.Add(d)
}

// workerState is one registered worker.
type workerState struct {
	name     string
	lastBeat time.Time
	study    string // assigned study ID, "" when idle
}

// Coordinator is the fleet control service: admission, scheduling, liveness,
// drain and crash-recovery. All methods are safe for concurrent use.
type Coordinator struct {
	opts Options
	reg  *obs.Registry

	mu       sync.Mutex
	jrn      *ckpt.Journal
	studies  map[string]*study
	workers  map[string]*workerState
	nextSeq  int
	draining bool
	closed   bool
	// journalErr latches the first study-journal append failure: a
	// coordinator that cannot persist state transitions reports itself
	// unhealthy instead of limping on with split memory/disk state.
	journalErr error
	// gen counts schedule changes and wake is closed (then replaced) at
	// each one; see notifyLocked.
	gen  uint64
	wake chan struct{}
	// lastSweep is the clock reading of the previous janitor pass, so a
	// pass wakes the fleet once for each backoff that ended since.
	lastSweep time.Time

	janitorStop chan struct{}
	janitorDone chan struct{}
}

// Open starts a coordinator over a data directory, replaying the study
// journal if one exists: terminal studies are remembered, interrupted ones
// re-queued. The same call is both cold start and crash-recovery.
func Open(opts Options) (*Coordinator, error) {
	if opts.DataDir == "" {
		return nil, fmt.Errorf("fleet: Options.DataDir is required")
	}
	if opts.QueueLimit <= 0 {
		opts.QueueLimit = DefaultQueueLimit
	}
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = DefaultMaxConcurrent
	}
	if opts.RetryLimit <= 0 {
		opts.RetryLimit = DefaultRetryLimit
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = DefaultRetryBackoff
	}
	if opts.WorkerTTL <= 0 {
		opts.WorkerTTL = DefaultWorkerTTL
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = lease.DefaultTTL
	}
	if opts.JanitorEvery <= 0 {
		opts.JanitorEvery = DefaultJanitorEvery
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if err := os.MkdirAll(filepath.Join(opts.DataDir, "studies"), 0o755); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	jrn, err := ckpt.OpenWith(filepath.Join(opts.DataDir, "fleet.jsonl"),
		ckpt.Options{Resume: true, Fsync: !opts.NoFsync})
	if err != nil {
		return nil, fmt.Errorf("fleet: study journal: %w", err)
	}
	studies, nextSeq, err := replayStudies(jrn)
	if err != nil {
		jrn.Close()
		return nil, err
	}
	c := &Coordinator{
		opts:        opts,
		reg:         opts.Registry,
		jrn:         jrn,
		studies:     studies,
		workers:     make(map[string]*workerState),
		nextSeq:     nextSeq,
		wake:        make(chan struct{}),
		lastSweep:   opts.Now(),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	for _, st := range studies {
		st.workers = make(map[string]bool)
		st.nextAttempt = c.lastSweep
	}
	c.updateGauges()
	go c.janitor()
	return c, nil
}

func (c *Coordinator) now() time.Time { return c.opts.Now() }

// pollEvery is the lease's Poll: the longest an idle worker's wait is held,
// and the worker's sleep after a failed call.
func (c *Coordinator) pollEvery() time.Duration {
	return min(c.opts.WorkerTTL/3, 500*time.Millisecond)
}

// notifyLocked records a schedule change: it bumps gen and wakes every
// held Wait and a waiting Drain. It runs under c.mu on every event that can
// change what NextTask answers or what a waiter must learn: each journaled
// state change, each task report, drain, close, the expiry of a busy
// worker and the end of a retry backoff.
func (c *Coordinator) notifyLocked() {
	c.gen++
	close(c.wake)
	c.wake = make(chan struct{})
}

// journalState persists one state transition; a failed append latches the
// coordinator unhealthy and surfaces the error to the caller.
func (c *Coordinator) journalState(st *study) error {
	c.notifyLocked()
	err := c.jrn.Append(stateKey(st.id), stateRecord{State: st.state, Reason: st.reason, Failures: st.failures})
	if err != nil && c.journalErr == nil {
		c.journalErr = err
		c.reg.Event("fleet.journal_error", err.Error())
	}
	return err
}

// counts tallies studies by queue position under the lock.
func (c *Coordinator) counts() (queued, running int) {
	for _, st := range c.studies {
		switch st.state {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		}
	}
	return
}

// updateGauges refreshes the queue/running/workers gauges under the lock.
func (c *Coordinator) updateGauges() {
	if c.reg == nil {
		return
	}
	queued, running := c.counts()
	c.reg.Gauge("fleet.queue_depth").Set(int64(queued))
	c.reg.Gauge("fleet.running").Set(int64(running))
	c.reg.Gauge("fleet.workers").Set(int64(len(c.workers)))
}

// retryAfter estimates when a rejected submitter should try again: one
// backoff quantum per queued study, floored at a second.
func (c *Coordinator) retryAfter(queued int) time.Duration {
	return max(time.Duration(queued)*time.Second, time.Second)
}

// Submit admits one study: validate, assign the next ID, journal the
// admission and the Queued state, all atomically under the lock. A draining
// or full coordinator rejects with ErrDraining/ErrQueueFull wrapped in a
// RetryableError carrying the suggested retry delay.
func (c *Coordinator) Submit(spec StudySpec) (string, error) {
	if err := spec.Validate(); err != nil {
		return "", err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return "", ErrClosed
	}
	queued, _ := c.counts()
	if c.draining {
		c.reg.Counter("fleet.rejected_drain").Inc()
		return "", &RetryableError{Err: ErrDraining, After: c.retryAfter(queued)}
	}
	if queued >= c.opts.QueueLimit {
		c.reg.Counter("fleet.rejected_full").Inc()
		return "", &RetryableError{Err: ErrQueueFull, After: c.retryAfter(queued)}
	}
	id := studyID(c.nextSeq)
	now := c.now()
	st := &study{
		id:          id,
		spec:        spec,
		admitted:    now,
		state:       StateQueued,
		nextAttempt: now,
		workers:     make(map[string]bool),
	}
	if err := c.jrn.Append(specKey(id), admissionRecord{Spec: spec, Admitted: st.admitted}); err != nil {
		if c.journalErr == nil {
			c.journalErr = err
			c.reg.Event("fleet.journal_error", err.Error())
		}
		return "", err
	}
	if err := c.journalState(st); err != nil {
		return "", err
	}
	c.nextSeq++
	c.studies[id] = st
	c.reg.Counter("fleet.submitted").Inc()
	c.updateGauges()
	return id, nil
}

// RetryableError is a rejection the client should retry after a delay — the
// HTTP layer renders it as 429 with a Retry-After header.
type RetryableError struct {
	Err   error
	After time.Duration
}

func (e *RetryableError) Error() string { return e.Err.Error() }
func (e *RetryableError) Unwrap() error { return e.Err }

// studyDir returns a study's durable directory (worker journals, leases,
// merged result).
func (c *Coordinator) studyDir(id string) string {
	return filepath.Join(c.opts.DataDir, "studies", id)
}

// CacheDir returns the fleet-wide persistent result cache directory shared
// by every worker.
func (c *Coordinator) CacheDir() string { return filepath.Join(c.opts.DataDir, "cache") }

// transition moves a study to a terminal or queued state, journals it and
// bumps the matching counter.
func (c *Coordinator) transition(st *study, to State, reason string) error {
	st.state, st.reason = to, reason
	if to.Terminal() {
		st.finished = c.now()
	}
	err := c.journalState(st)
	switch to {
	case StateDone:
		c.reg.Counter("fleet.completed").Inc()
	case StateFailed:
		c.reg.Counter("fleet.failed").Inc()
	case StateCancelled:
		c.reg.Counter("fleet.cancelled").Inc()
	case StateQuarantined:
		c.reg.Counter("fleet.quarantined").Inc()
	}
	c.updateGauges()
	return err
}

// Cancel terminates a queued or running study. Workers assigned to it are
// told to abandon on their next heartbeat; their journaled shard records
// stay on disk (harmless, and a resubmitted identical study could even reuse
// the cache they warmed).
func (c *Coordinator) Cancel(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.studies[id]
	if !ok {
		return ErrUnknownStudy
	}
	if st.state.Terminal() {
		return fmt.Errorf("fleet: study %s is already %s", id, st.state)
	}
	return c.transition(st, StateCancelled, "cancelled by request")
}

// RegisterWorker adds (or refreshes) a worker in the liveness registry.
// Re-registering an existing name replaces its registration — the normal
// path for a worker process that restarted faster than its TTL.
func (c *Coordinator) RegisterWorker(name string) (WorkerLease, error) {
	if name == "" {
		return WorkerLease{}, fmt.Errorf("fleet: worker name is required")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return WorkerLease{}, ErrClosed
	}
	w := c.workers[name]
	if w == nil {
		w = &workerState{name: name}
		c.workers[name] = w
	}
	w.lastBeat = c.now()
	c.reg.Counter("fleet.worker_registered").Inc()
	c.updateGauges()
	return WorkerLease{
		TTL:       c.opts.WorkerTTL,
		Heartbeat: c.opts.WorkerTTL / 3,
		Poll:      c.pollEvery(),
	}, nil
}

// WorkerLease is what a registration hands back: the liveness TTL, the
// heartbeat cadence and the idle-wait bound.
type WorkerLease struct {
	TTL       time.Duration `json:"ttl"`
	Heartbeat time.Duration `json:"heartbeat"`
	// Poll is the maximum hold of an idle wait, and the retry sleep after a
	// failed call.
	Poll time.Duration `json:"poll"`
}

// Heartbeat renews a worker's liveness and answers the two control signals
// the worker acts on: abandon (its current study is no longer running —
// cancelled, failed, re-queued) and drain (stop after the in-flight shard).
func (c *Coordinator) Heartbeat(worker, studyID string) (abandon, drain bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[worker]
	if !ok {
		return false, false, ErrUnknownWorker
	}
	w.lastBeat = c.now()
	if studyID != "" {
		st, ok := c.studies[studyID]
		abandon = !ok || st.state != StateRunning
	}
	return abandon, c.draining, nil
}

// Wait holds an idle worker until the schedule moves past gen — the Gen of
// its last empty TaskAnswer — and then returns nil, so the worker polls
// again. It returns at once when gen is stale or the coordinator is
// draining, and otherwise after the wake, ctx's end or one Poll period,
// whichever comes first; a closed coordinator answers ErrClosed. A wait
// changes no state, so a lost answer loses nothing. It renews the worker's
// liveness like a heartbeat.
func (c *Coordinator) Wait(ctx context.Context, worker string, gen uint64) error {
	c.mu.Lock()
	w, ok := c.workers[worker]
	switch {
	case c.closed:
		c.mu.Unlock()
		return ErrClosed
	case !ok:
		c.mu.Unlock()
		return ErrUnknownWorker
	}
	w.lastBeat = c.now()
	wake := c.wake
	moved := gen != c.gen || c.draining
	c.mu.Unlock()
	if moved {
		return nil
	}
	t := time.NewTimer(c.pollEvery())
	defer t.Stop()
	select {
	case <-wake:
	case <-ctx.Done():
	case <-t.C:
	}
	return nil
}

// Task is one unit of assigned work: run the study's sharded exploration
// against the shared data directory until every shard is done. Several
// workers may hold the same task; the study's lease files arbitrate shards
// between them.
type Task struct {
	Study     string        `json:"study"`
	Spec      StudySpec     `json:"spec"`
	Signature string        `json:"signature"`
	Shards    int           `json:"shards"`
	StudyDir  string        `json:"study_dir"`
	CacheDir  string        `json:"cache_dir"`
	LeaseTTL  time.Duration `json:"lease_ttl"`
}

// TaskAnswer is the answer to a worker's task poll.
type TaskAnswer struct {
	// Task is the assignment; nil means nothing is schedulable right now.
	Task *Task `json:"task,omitempty"`
	// Drain reports shutdown: the worker should exit.
	Drain bool `json:"drain,omitempty"`
	// Gen is the schedule generation the answer was decided at; an idle
	// worker passes it to Wait.
	Gen uint64 `json:"gen"`
}

// NextTask assigns work to an idle worker: promote queued studies into the
// running set (up to MaxConcurrent, honoring retry backoff), then hand out
// the running study with the fewest assigned workers.
func (c *Coordinator) NextTask(worker string) (TaskAnswer, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	task, drain, err := c.nextTaskLocked(worker)
	return TaskAnswer{Task: task, Drain: drain, Gen: c.gen}, err
}

func (c *Coordinator) nextTaskLocked(worker string) (task *Task, drain bool, err error) {
	w, ok := c.workers[worker]
	if !ok {
		return nil, false, ErrUnknownWorker
	}
	w.lastBeat = c.now()
	if c.draining {
		return nil, true, nil
	}

	// Promote in admission order, skipping studies still in retry backoff.
	now := c.now()
	_, running := c.counts()
	for _, st := range c.studiesByID() {
		if running >= c.opts.MaxConcurrent {
			break
		}
		if st.state != StateQueued || now.Before(st.nextAttempt) {
			continue
		}
		st.state = StateRunning
		if err := c.journalState(st); err != nil {
			return nil, false, err
		}
		running++
	}
	c.updateGauges()

	// Assign the least-covered running study.
	var pick *study
	for _, st := range c.studiesByID() {
		if st.state != StateRunning {
			continue
		}
		if pick == nil || len(st.workers) < len(pick.workers) {
			pick = st
		}
	}
	if pick == nil {
		return nil, false, nil
	}
	sig, err := pick.spec.Signature()
	if err != nil {
		// Validated at admission; failing here means the environment changed
		// (e.g. a zoo model disappeared). Quarantine, don't loop.
		c.reg.Event("fleet.signature_error", pick.id+": "+err.Error())
		return nil, false, c.transition(pick, StateQuarantined, "signature: "+err.Error())
	}
	if err := os.MkdirAll(c.studyDir(pick.id), 0o755); err != nil {
		return nil, false, fmt.Errorf("fleet: %w", err)
	}
	if pick.started.IsZero() {
		pick.started = now
		c.reg.Phase("fleet.dispatch_wait").Observe(now.Sub(pick.nextAttempt))
	}
	pick.workers[worker] = true
	w.study = pick.id
	c.reg.Counter("fleet.tasks_assigned").Inc()
	return &Task{
		Study:     pick.id,
		Spec:      pick.spec,
		Signature: sig,
		Shards:    pick.spec.shards(),
		StudyDir:  c.studyDir(pick.id),
		CacheDir:  c.CacheDir(),
		LeaseTTL:  c.opts.LeaseTTL,
	}, false, nil
}

// studiesByID returns the studies in admission (ID) order.
func (c *Coordinator) studiesByID() []*study {
	out := make([]*study, 0, len(c.studies))
	for _, st := range c.studies {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Report is a worker's account of one finished (or abandoned) task.
type Report struct {
	Study string `json:"study"`
	// Err is the failure that ended the task ("" = every shard done).
	Err string `json:"err,omitempty"`
	// Aborted marks a task ended by cancellation (drain, abandon, worker
	// shutdown) rather than failure — it counts against nobody.
	Aborted bool `json:"aborted,omitempty"`
	// Completed/Abandoned/Reclaimed mirror dse.ShardedResult.
	Completed int `json:"completed,omitempty"`
	Abandoned int `json:"abandoned,omitempty"`
	Reclaimed int `json:"reclaimed,omitempty"`
}

// retryBackoff is the bounded doubling re-queue delay after the n-th failure
// (1-based), following the engine's resilience convention.
func (c *Coordinator) retryBackoff(n int) time.Duration {
	b := c.opts.RetryBackoff
	for i := 1; i < n && b < maxRetryBackoff; i++ {
		b *= 2
	}
	return min(b, maxRetryBackoff)
}

// ReportDone ingests a worker's task report: success merges and completes
// the study, failure counts against the circuit breaker (bounded-backoff
// re-queue, then quarantine), abort just releases the worker.
func (c *Coordinator) ReportDone(worker string, rep Report) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.notifyLocked()
	if w, ok := c.workers[worker]; ok && w.study == rep.Study {
		w.study = ""
	}
	c.reg.Counter("fleet.shards_completed").Add(int64(rep.Completed))
	c.reg.Counter("fleet.shards_abandoned").Add(int64(rep.Abandoned))
	c.reg.Counter("fleet.shards_reclaimed").Add(int64(rep.Reclaimed))
	st, ok := c.studies[rep.Study]
	if !ok {
		return ErrUnknownStudy
	}
	delete(st.workers, worker)
	if st.state.Terminal() {
		return nil // late report after cancel/quarantine/another worker's finish
	}
	switch {
	case rep.Aborted:
		// Cancellation is not failure; the study keeps its state (a drained
		// Running study re-queues via journal replay on the next start).
		return nil
	case rep.Err != "":
		st.failures++
		c.reg.Counter("fleet.retries").Inc()
		c.reg.Event("fleet.task_error", fmt.Sprintf("%s (failure %d): %s", st.id, st.failures, rep.Err))
		if st.failures > c.opts.RetryLimit {
			return c.transition(st, StateQuarantined,
				fmt.Sprintf("quarantined after %d failures; last: %s", st.failures, rep.Err))
		}
		st.state = StateQueued
		st.reason = fmt.Sprintf("retry %d/%d after: %s", st.failures, c.opts.RetryLimit, rep.Err)
		st.nextAttempt = c.now().Add(c.retryBackoff(st.failures))
		st.started = time.Time{}
		err := c.journalState(st)
		c.updateGauges()
		return err
	default:
		return c.finishLocked(st)
	}
}

// finishLocked merges the study's worker journals into the canonical result
// and marks it Done. Merging is idempotent and deterministic (sorted keys,
// meta stripped, divergent duplicates rejected), so a re-merge after a crash
// writes byte-identical output.
func (c *Coordinator) finishLocked(st *study) error {
	dir := c.studyDir(st.id)
	journals, err := filepath.Glob(filepath.Join(dir, "worker-*.jsonl"))
	if err != nil || len(journals) == 0 {
		return c.transition(st, StateQuarantined, fmt.Sprintf("no worker journals to merge in %s", dir))
	}
	sort.Strings(journals)
	tmp, err := os.CreateTemp(dir, ".merged-*")
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	tmpName := tmp.Name()
	_, merr := ckpt.MergeFiles(tmp, journals...)
	if cerr := tmp.Close(); merr == nil {
		merr = cerr
	}
	if merr == nil {
		merr = os.Rename(tmpName, filepath.Join(dir, "merged.jsonl"))
	}
	if merr != nil {
		os.Remove(tmpName)
		// A divergent or corrupt journal is not retryable — re-running would
		// hit the same bytes. Quarantine with the reason on record.
		return c.transition(st, StateQuarantined, "merge: "+merr.Error())
	}
	if !st.started.IsZero() {
		c.reg.Phase("fleet.study_run").Observe(c.now().Sub(st.started))
	}
	return c.transition(st, StateDone, "")
}

// ResultPath returns the merged result journal of a Done study.
func (c *Coordinator) ResultPath(id string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.studies[id]
	if !ok {
		return "", ErrUnknownStudy
	}
	if st.state != StateDone {
		return "", fmt.Errorf("fleet: study %s is %s, not done", id, st.state)
	}
	return filepath.Join(c.studyDir(id), "merged.jsonl"), nil
}

// StudyStatus is the externally visible state of one study.
type StudyStatus struct {
	ID         string    `json:"id"`
	State      State     `json:"state"`
	Reason     string    `json:"reason,omitempty"`
	Failures   int       `json:"failures,omitempty"`
	Shards     int       `json:"shards"`
	ShardsDone int       `json:"shards_done"`
	Workers    []string  `json:"workers,omitempty"`
	Admitted   time.Time `json:"admitted"`
	// Deadline, Started and Finished are nil while unset, so their JSON
	// keys are omitted rather than rendered as the zero time. Deadline is
	// nil when neither the study nor the coordinator sets one. Started is
	// when the current run was first assigned a worker, nil while it waits.
	// A retry starts a new run. Finished is when the study reached a
	// terminal state. Neither is journaled: both are nil for a study
	// replayed after a coordinator restart until it runs again.
	Deadline *time.Time `json:"deadline,omitempty"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
}

// setTime returns a pointer to t, or nil when t is the zero time.
func setTime(t time.Time) *time.Time {
	if t.IsZero() {
		return nil
	}
	return &t
}

func (c *Coordinator) statusLocked(st *study) StudyStatus {
	s := StudyStatus{
		ID:       st.id,
		State:    st.state,
		Reason:   st.reason,
		Failures: st.failures,
		Shards:   st.spec.shards(),
		Admitted: st.admitted,
		Deadline: setTime(st.deadlineAt(c.opts.DefaultDeadline)),
		Started:  setTime(st.started),
		Finished: setTime(st.finished),
	}
	s.ShardsDone = lease.DoneCount(filepath.Join(c.studyDir(st.id), "leases"), s.Shards)
	for w := range st.workers {
		s.Workers = append(s.Workers, w)
	}
	sort.Strings(s.Workers)
	return s
}

// Status reports one study.
func (c *Coordinator) Status(id string) (StudyStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.studies[id]
	if !ok {
		return StudyStatus{}, ErrUnknownStudy
	}
	return c.statusLocked(st), nil
}

// List reports every study in admission order.
func (c *Coordinator) List() []StudyStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]StudyStatus, 0, len(c.studies))
	for _, st := range c.studiesByID() {
		out = append(out, c.statusLocked(st))
	}
	return out
}

// Healthy is the liveness probe: nil while the coordinator can still persist
// state. A latched journal failure is fatal — memory and disk have diverged,
// so the process should be restarted (replay heals from the journal).
func (c *Coordinator) Healthy() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.journalErr != nil {
		return fmt.Errorf("fleet: study journal failed: %w", c.journalErr)
	}
	if c.closed {
		return ErrClosed
	}
	return nil
}

// Ready is the readiness probe: nil while the coordinator accepts new
// studies. Draining flips it before the listener stops, so load balancers
// stop routing ahead of the 429s.
func (c *Coordinator) Ready() error {
	if err := c.Healthy(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return ErrDraining
	}
	return nil
}

// janitor is the background sweep: expire workers whose heartbeats stopped
// and fail studies past their deadline.
func (c *Coordinator) janitor() {
	defer close(c.janitorDone)
	t := time.NewTicker(c.opts.JanitorEvery)
	defer t.Stop()
	for {
		select {
		case <-c.janitorStop:
			return
		case <-t.C:
			c.sweep()
		}
	}
}

// sweep runs one janitor pass.
func (c *Coordinator) sweep() {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	for name, w := range c.workers {
		if now.Sub(w.lastBeat) <= c.opts.WorkerTTL {
			continue
		}
		// Dead worker: unregister it and detach it from its study. Its shard
		// lease expires on its own TTL, and any surviving worker on the study
		// reclaims the shard via lease takeover.
		delete(c.workers, name)
		if w.study != "" {
			if st, ok := c.studies[w.study]; ok {
				delete(st.workers, name)
			}
			c.notifyLocked() // a draining coordinator waits for busy workers
		}
		c.reg.Counter("fleet.worker_expired").Inc()
		c.reg.Event("fleet.worker_expired", fmt.Sprintf("%s (last heartbeat %s ago, on %q)",
			name, now.Sub(w.lastBeat).Round(time.Millisecond), w.study))
	}
	backoffEnded := false
	for _, st := range c.studies {
		if st.state.Terminal() {
			continue
		}
		if dl := st.deadlineAt(c.opts.DefaultDeadline); !dl.IsZero() && now.After(dl) {
			c.transition(st, StateFailed, //nolint:errcheck — latched via journalErr
				fmt.Sprintf("deadline exceeded (%s since admission)", now.Sub(st.admitted).Round(time.Millisecond)))
			continue
		}
		// Admissions and restarts woke the fleet when they happened; only a
		// retry becomes schedulable later, with no event of its own.
		if st.state == StateQueued && st.failures > 0 && c.lastSweep.Before(st.nextAttempt) && !now.Before(st.nextAttempt) {
			backoffEnded = true
		}
	}
	if backoffEnded {
		c.notifyLocked()
	}
	c.lastSweep = now
	c.updateGauges()
}

// Drain is graceful shutdown: stop admitting (submissions 429, readiness
// 503), stop assigning, signal in-flight workers to stop after — or
// checkpoint out of — their current shard, wait for them to report (bounded
// by ctx), then flush and close the study journal. In-flight shard results
// are already durable record-by-record, so a drain loses at most the
// evaluation in progress, never a completed result.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.draining = true
	c.notifyLocked()
	c.mu.Unlock()

	// Wait for every assigned worker to report its task ended or expire (the
	// drain flag rides on heartbeats and task polls); both wake this loop.
	for {
		c.mu.Lock()
		busy := 0
		for _, w := range c.workers {
			if w.study != "" {
				busy++
			}
		}
		wake := c.wake
		c.mu.Unlock()
		if busy == 0 {
			break
		}
		select {
		case <-ctx.Done():
			// Grace expired: close anyway. Worker journals are crash-safe
			// (single-write records), so nothing completed is lost.
			return c.Close()
		case <-wake:
		}
	}
	return c.Close()
}

// Close releases every held Wait, stops the janitor and closes the study
// journal. Idempotent.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.notifyLocked()
	c.mu.Unlock()
	close(c.janitorStop)
	<-c.janitorDone
	return c.jrn.Close()
}
