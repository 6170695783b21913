package fleet

// Worker is the fleet's execution side: a client loop that registers with a
// coordinator, polls for a task, and runs each task's sharded exploration
// (dse.RunShardedExplore) against the shared data directory, heartbeating its
// liveness meanwhile. A poll that finds nothing is followed by a held wait
// that the coordinator answers as soon as the schedule changes, so an idle
// worker neither spins nor sleeps through a submission. Every call is bound
// to the worker's context. The HTTP control plane only carries assignments
// and liveness; shard arbitration stays on the study's lease files and
// results stay in the worker's crash-safe checkpoint journal, so a worker
// that dies loses nothing it completed and its shards are reclaimed by
// peers.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"time"

	"nnbaton/internal/ckpt"
	"nnbaton/internal/dse"
	"nnbaton/internal/engine"
	"nnbaton/internal/hardware"
	"nnbaton/internal/lease"
	"nnbaton/internal/obs"
	"nnbaton/internal/store"
)

// WorkerOptions configures one fleet worker.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL (e.g. http://host:8080).
	Coordinator string
	// Name is the worker's fleet-unique identity; it also names the
	// worker's per-study checkpoint journals, so a restarted worker with
	// the same name resumes its own journal (replaying, not re-evaluating).
	Name string
	// EngineWorkers bounds the evaluation engine's concurrency per task
	// (<=0 = GOMAXPROCS).
	EngineWorkers int
	// Client is the HTTP client (nil uses a 10s-timeout default).
	Client *http.Client
	// Registry receives engine metrics (nil disables).
	Registry *obs.Registry
	// Log receives one-line progress messages (nil discards).
	Log io.Writer
}

// Worker runs the fleet worker loop.
type Worker struct {
	opts   WorkerOptions
	client *http.Client
	cm     *hardware.CostModel
	lease  WorkerLease
}

// NewWorker builds a worker. Name and Coordinator are required.
func NewWorker(opts WorkerOptions) (*Worker, error) {
	if opts.Coordinator == "" || opts.Name == "" {
		return nil, fmt.Errorf("fleet: worker needs Coordinator and Name")
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	return &Worker{opts: opts, client: client, cm: hardware.MustCostModel()}, nil
}

func (w *Worker) logf(format string, args ...any) {
	if w.opts.Log != nil {
		fmt.Fprintf(w.opts.Log, "worker %s: "+format+"\n", append([]any{w.opts.Name}, args...)...)
	}
}

// post sends a JSON request under ctx and decodes the JSON response into out
// (when non-nil), returning the HTTP status.
func (w *Worker) post(ctx context.Context, path string, body, out any) (int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, fmt.Errorf("fleet: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opts.Coordinator+path, bytes.NewReader(data))
	if err != nil {
		return 0, fmt.Errorf("fleet: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("fleet: response for %s: %w", path, err)
		}
	}
	if resp.StatusCode >= 300 {
		return resp.StatusCode, fmt.Errorf("fleet: %s answered %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return resp.StatusCode, nil
}

// register joins (or rejoins) the coordinator's liveness registry, retrying
// with bounded doubling backoff until ctx ends.
func (w *Worker) register(ctx context.Context) error {
	backoff := 100 * time.Millisecond
	for {
		var ws WorkerLease
		_, err := w.post(ctx, "/v1/workers", struct {
			Name string `json:"name"`
		}{w.opts.Name}, &ws)
		if err == nil {
			w.lease = ws
			return nil
		}
		w.logf("register: %v (retrying in %v)", err, backoff)
		if serr := engine.SleepCtx(ctx, backoff); serr != nil {
			return serr
		}
		backoff = min(backoff*2, 5*time.Second)
	}
}

// Run is the worker loop: register, then poll for tasks until the context
// ends or the coordinator drains. Returns nil on a drain (clean fleet
// shutdown) and the context's error on cancellation.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	w.logf("registered (heartbeat %v, poll %v)", w.lease.Heartbeat, w.lease.Poll)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var tr TaskAnswer
		status, err := w.post(ctx, "/v1/workers/"+w.opts.Name+"/task", struct{}{}, &tr)
		switch {
		case status == http.StatusNotFound:
			// Registration expired (a long GC pause, a network partition):
			// rejoin and retry.
			if err := w.register(ctx); err != nil {
				return err
			}
			continue
		case err != nil:
			w.logf("task poll: %v", err)
			if serr := engine.SleepCtx(ctx, w.pollEvery()); serr != nil {
				return serr
			}
			continue
		case tr.Drain:
			w.logf("coordinator draining; exiting")
			return nil
		case tr.Task == nil:
			// Idle: hold until the schedule moves past the poll's generation.
			_, err := w.post(ctx, "/v1/workers/"+w.opts.Name+"/wait", struct {
				Gen uint64 `json:"gen"`
			}{tr.Gen}, nil)
			if err != nil && ctx.Err() == nil {
				w.logf("wait: %v", err)
				if serr := engine.SleepCtx(ctx, w.pollEvery()); serr != nil {
					return serr
				}
			}
			continue
		}
		w.runTask(ctx, tr.Task)
	}
}

func (w *Worker) pollEvery() time.Duration {
	if w.lease.Poll > 0 {
		return w.lease.Poll
	}
	return 500 * time.Millisecond
}

func (w *Worker) heartbeatEvery() time.Duration {
	if w.lease.Heartbeat > 0 {
		return w.lease.Heartbeat
	}
	return 5 * time.Second
}

// runTask executes one assignment end to end and always reports an outcome:
// success (every shard done), abort (cancelled/drained) or failure.
func (w *Worker) runTask(ctx context.Context, task *Task) {
	w.logf("task %s: %d shards of %s", task.Study, task.Shards, task.Signature)
	rep := w.executeTask(ctx, task)
	// The report outlives cancellation: an aborted task still releases the
	// worker's assignment, which a draining coordinator waits for.
	if _, err := w.post(context.WithoutCancel(ctx), "/v1/workers/"+w.opts.Name+"/done", rep, nil); err != nil {
		// The report is advisory: the durable truth (done markers, journal
		// records) is already on disk, and a lost report only delays the
		// coordinator until another worker's report or a retry.
		w.logf("task %s: report failed: %v", task.Study, err)
	}
	switch {
	case rep.Err != "":
		w.logf("task %s: failed: %s", task.Study, rep.Err)
	case rep.Aborted:
		w.logf("task %s: aborted (drain or cancel); journaled work is durable", task.Study)
	default:
		w.logf("task %s: all shards done (completed %d, reclaimed %d)", task.Study, rep.Completed, rep.Reclaimed)
	}
}

// executeTask runs the sharded exploration of one task under a cancelable
// context fed by the heartbeat loop's abandon/drain signals.
func (w *Worker) executeTask(ctx context.Context, task *Task) Report {
	rep := Report{Study: task.Study}
	model, err := task.Spec.ResolveModel()
	if err != nil {
		rep.Err = err.Error()
		return rep
	}
	// Defense in depth: the signature this worker derives must match the
	// assignment, or journals and leases would silently cross studies.
	sig, err := task.Spec.Signature()
	if err == nil && sig != task.Signature {
		err = fmt.Errorf("fleet: signature mismatch: coordinator %q, worker %q", task.Signature, sig)
	}
	if err != nil {
		rep.Err = err.Error()
		return rep
	}

	taskCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		t := time.NewTimer(w.heartbeatEvery())
		defer t.Stop()
		for {
			select {
			case <-taskCtx.Done():
				return
			case <-t.C:
			}
			var hb struct {
				Abandon bool `json:"abandon"`
				Drain   bool `json:"drain"`
			}
			status, err := w.post(taskCtx, "/v1/workers/"+w.opts.Name+"/heartbeat", struct {
				Study string `json:"study"`
			}{task.Study}, &hb)
			switch {
			case status == http.StatusNotFound:
				// Expired mid-task: shard leases keep the work safe; rejoin.
				if w.register(taskCtx) != nil {
					return
				}
			case err != nil:
				w.logf("heartbeat: %v", err)
			case hb.Abandon || hb.Drain:
				// Cancelled study or draining fleet: checkpoint out of the
				// in-flight shard (journal records are already durable) and
				// let RunShardedExplore unwind via context.
				cancel()
				return
			}
			t.Reset(w.heartbeatEvery())
		}
	}()
	defer func() { cancel(); <-hbDone }()

	jrn, err := ckpt.OpenWith(filepath.Join(task.StudyDir, "worker-"+w.opts.Name+".jsonl"),
		ckpt.Options{Resume: true})
	if err != nil {
		rep.Err = err.Error()
		return rep
	}
	defer jrn.Close()
	cfg := engine.Config{Workers: w.opts.EngineWorkers, Journal: jrn, Registry: w.opts.Registry}
	if task.CacheDir != "" {
		cache, err := store.Open(task.CacheDir, w.opts.Registry)
		if err != nil {
			rep.Err = err.Error()
			return rep
		}
		defer cache.Close()
		cfg.Cache = cache
	}
	mgr, err := lease.New(filepath.Join(task.StudyDir, "leases"), task.Signature, w.opts.Name,
		lease.Options{TTL: task.LeaseTTL})
	if err != nil {
		rep.Err = err.Error()
		return rep
	}
	defer mgr.Release()

	res, err := dse.RunShardedExplore(taskCtx, model, task.Spec.space(), task.Spec.MACs,
		task.Spec.AreaMM2, engine.NewFromConfig(w.cm, cfg), mgr, task.Shards)
	rep.Completed, rep.Abandoned, rep.Reclaimed = len(res.Completed), res.Abandoned, res.Reclaimed
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		rep.Aborted = true
	default:
		rep.Err = err.Error()
	}
	return rep
}
