package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"nnbaton/internal/ckpt"
	"nnbaton/internal/dse"
	"nnbaton/internal/engine"
	"nnbaton/internal/fleet"
	"nnbaton/internal/hardware"
	"nnbaton/internal/lease"
	"nnbaton/internal/obs"
)

// The fleet campaign: an in-process coordinator on loopback with two
// workers, and a burst of small sharded explore studies admitted at once.
// Every base study has a twin with the same model and space but another
// area limit: the twin repeats the base's layer searches, so the shared
// result store serves reads beside writes.
var fleetModels = []string{"alexnet", "darknet19", "vgg16"}

const (
	fleetMACs   = 512
	fleetShards = 2
	// fleetPollEvery is how often the benchmark's client polls a study's
	// status while waiting for the burst to finish.
	fleetPollEvery = 10 * time.Millisecond
)

// fleetSpace is small so that the control plane — admission, polling,
// journals, lease files and merge — is a large share of a study's time.
func fleetSpace() *dse.Space {
	return &dse.Space{
		Vector: []int{8}, Lanes: []int{8, 16}, Cores: []int{2, 4}, Chiplets: []int{2, 4},
		OL1PerLane: []int{96, 144}, AL1: []int{4096, 16384}, WL1: []int{16384, 65536}, AL2: []int{65536, 131072},
	}
}

// fleetMix is the seeded burst: the models and spaces are fixed, so every
// seed costs the same evaluation; the seed draws each study's area limit
// (twins never share one) and the order of admission.
func fleetMix(seed int64) []fleet.StudySpec {
	rng := rand.New(rand.NewSource(seed))
	areas := []float64{1.5, 2, 2.5, 3, 4}
	var specs []fleet.StudySpec
	for _, m := range fleetModels {
		pick := rng.Perm(len(areas))
		for _, i := range pick[:2] {
			specs = append(specs, fleet.StudySpec{Model: m, Res: 224, MACs: fleetMACs,
				AreaMM2: areas[i], Space: fleetSpace(), Shards: fleetShards})
		}
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

type fleetFlow struct {
	seed    int64
	scratch string
	specs   []fleet.StudySpec
	setups  int
	// Outputs of the last repetition, kept for check: each study's served
	// result bytes, in spec order.
	results [][]byte
}

func newFleetFlow(seed int64, scratch string) *fleetFlow {
	return &fleetFlow{seed: seed, scratch: scratch, specs: fleetMix(seed)}
}

func (f *fleetFlow) nominalUnit() time.Duration { return 1500 * time.Millisecond }

// fleetInstance is one coordinator, its HTTP listener and two registered
// workers over a fresh data directory.
type fleetInstance struct {
	f       *fleetFlow
	dir     string
	coord   *fleet.Coordinator
	srv     *http.Server
	served  chan error
	url     string
	client  *http.Client
	cancel  context.CancelFunc
	workers sync.WaitGroup
	reg     *obs.Registry // the workers' registry
	watch   *fleetWatch
	ids     []string
	// t is non-nil in the traced pass; studyEnd then closes each study's
	// admission-to-done span at the status poll that first sees it finished.
	t        *tracer
	studyEnd []func()
}

// fleetWorkers is the number of in-process workers of the fleet.
const fleetWorkers = 2

// fleetWatch marks two moments of a fresh fleet, seen from its HTTP
// handler: every worker registered, which ends the set-up, and every worker
// through its first task poll, after which an idle worker sleeps one poll
// period before it asks again. A repetition submits its studies only after
// the second, so it always starts from the same phase of that sleep.
type fleetWatch struct {
	mu                sync.Mutex
	registrations     int
	polled            map[string]bool
	registered, ready chan struct{}
}

func newFleetWatch() *fleetWatch {
	return &fleetWatch{polled: map[string]bool{}, registered: make(chan struct{}), ready: make(chan struct{})}
}

func (w *fleetWatch) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(rw, r)
		w.mu.Lock()
		defer w.mu.Unlock()
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/workers":
			if w.registrations++; w.registrations == fleetWorkers {
				close(w.registered)
			}
		case strings.HasSuffix(r.URL.Path, "/task") && !w.polled[r.URL.Path]:
			if w.polled[r.URL.Path] = true; len(w.polled) == fleetWorkers {
				close(w.ready)
			}
		}
	})
}

// await waits for a fleetWatch moment.
func await(ch <-chan struct{}, what string) error {
	select {
	case <-ch:
		return nil
	case <-time.After(10 * time.Second):
		return fmt.Errorf("fleet workers not %s within 10s", what)
	}
}

func (f *fleetFlow) setUp(ctx context.Context) (instance, error) {
	f.setups++
	return f.open(ctx, filepath.Join(f.scratch, fmt.Sprintf("fleet-%d", f.setups)), nil)
}

func (f *fleetFlow) open(ctx context.Context, dir string, reg *obs.Registry) (*fleetInstance, error) {
	// One study runs at a time, on both workers: a twin then always finds
	// its base's searches in the store, whatever the admission order, so
	// every seed does the same work.
	coord, err := fleet.Open(fleet.Options{DataDir: dir, MaxConcurrent: 1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		coord.Close()
		return nil, err
	}
	x := &fleetInstance{
		f: f, dir: dir, coord: coord, served: make(chan error, 1), watch: newFleetWatch(),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{}, Timeout: 30 * time.Second},
		reg:    reg,
	}
	if x.reg == nil {
		x.reg = obs.NewRegistry()
	}
	x.srv = &http.Server{Handler: x.watch.wrap(coord.Handler())}
	go func() { x.served <- x.srv.Serve(ln) }()
	wctx, cancel := context.WithCancel(ctx)
	x.cancel = cancel
	for i := 1; i <= fleetWorkers; i++ {
		w, err := fleet.NewWorker(fleet.WorkerOptions{Coordinator: x.url, Name: fmt.Sprintf("w%d", i), EngineWorkers: 1, Registry: x.reg})
		if err != nil {
			x.close()
			return nil, err
		}
		x.workers.Add(1)
		go func() {
			defer x.workers.Done()
			w.Run(wctx) //nolint:errcheck — ends with the context's error by design
		}()
	}
	if err := await(x.watch.registered, "registered"); err != nil {
		x.close()
		return nil, err
	}
	return x, nil
}

// call makes one HTTP round trip, under a span when traced, and decodes a
// JSON answer into out unless out is a *[]byte, which receives the body.
func (x *fleetInstance) call(span, method, path string, body any, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	do := func() error {
		req, err := http.NewRequest(method, x.url+path, rd)
		if err != nil {
			return err
		}
		resp, err := x.client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode >= 300 {
			return fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
		}
		if b, ok := out.(*[]byte); ok {
			*b = raw
			return nil
		}
		return json.Unmarshal(raw, out)
	}
	if x.t != nil {
		return x.t.do(span, do)
	}
	return do()
}

func (x *fleetInstance) run(ctx context.Context) (tally, error) {
	t := tally{attempted: len(x.f.specs)}
	if err := await(x.watch.ready, "polling"); err != nil {
		return t, err
	}
	x.ids = make([]string, len(x.f.specs))
	x.studyEnd = make([]func(), len(x.f.specs))
	for i, spec := range x.f.specs {
		var sub struct {
			ID string `json:"id"`
		}
		if err := x.call("fleet.submit", http.MethodPost, "/v1/studies", spec, &sub); err != nil {
			return t, fmt.Errorf("submit: %w", err)
		}
		x.ids[i] = sub.ID
		if x.t != nil {
			x.studyEnd[i] = x.t.start("fleet.study", 1)
		}
	}
	states := make([]fleet.State, len(x.ids))
	for pending := len(x.ids); pending > 0; {
		time.Sleep(fleetPollEvery)
		for i, id := range x.ids {
			if states[i].Terminal() {
				continue
			}
			var st fleet.StudyStatus
			if err := x.call("fleet.status", http.MethodGet, "/v1/studies/"+id, nil, &st); err != nil {
				return t, fmt.Errorf("status: %w", err)
			}
			states[i] = st.State
			if st.State.Terminal() {
				pending--
				if x.t != nil {
					x.studyEnd[i]()
				}
			}
		}
	}
	results := make([][]byte, len(x.ids))
	for i, id := range x.ids {
		if states[i] != fleet.StateDone {
			t.failed++
			continue
		}
		if err := x.call("fleet.result", http.MethodGet, "/v1/studies/"+id+"/result", nil, &results[i]); err != nil {
			return t, fmt.Errorf("result: %w", err)
		}
	}
	if t.failed == 0 {
		x.f.results = results
	}
	return t, nil
}

func (x *fleetInstance) close() error {
	x.cancel()
	x.workers.Wait()
	err := x.srv.Close()
	if serr := <-x.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	x.client.CloseIdleConnections()
	if cerr := x.coord.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(x.dir); err == nil {
		err = rerr
	}
	return err
}

func (f *fleetFlow) check(ctx context.Context) error {
	if f.results == nil {
		return nil // a study failed; the failures are counted
	}
	return checkFleet(ctx, filepath.Join(f.scratch, "reference"), f.specs, f.results)
}

// checkFleet re-runs every study as one single-process dse.Explore with a
// checkpoint journal, and requires the fleet's served result bytes to equal
// ckpt.MergeFiles of that journal.
func checkFleet(ctx context.Context, dir string, specs []fleet.StudySpec, results [][]byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cm, err := hardware.NewCostModel()
	if err != nil {
		return err
	}
	for i, spec := range specs {
		model, err := spec.ResolveModel()
		if err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("single-%d.jsonl", i))
		j, err := ckpt.OpenWith(path, ckpt.Options{})
		if err != nil {
			return err
		}
		_, err = dse.Explore(ctx, model, *spec.Space, spec.MACs, spec.AreaMM2, engine.NewFromConfig(cm, engine.Config{Journal: j}))
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("reference explore of %s: %w", spec.Model, err)
		}
		var want bytes.Buffer
		if _, err := ckpt.MergeFiles(&want, path); err != nil {
			return err
		}
		if !bytes.Equal(results[i], want.Bytes()) {
			return fmt.Errorf("study %d (%s, %.1f mm²): served result (%d bytes) differs from the single-process journal (%d bytes)",
				i, spec.Model, spec.AreaMM2, len(results[i]), want.Len())
		}
	}
	return nil
}

// trace runs one campaign with a span around each of the client's HTTP
// round trips and each study's admission-to-done time, then merges every
// finished study's worker journals and times lease claims on their own.
func (f *fleetFlow) trace(ctx context.Context, t *tracer) (metricSet, tally, error) {
	x, err := f.open(ctx, filepath.Join(f.scratch, "fleet-traced"), obs.NewRegistry())
	if err != nil {
		return nil, tally{}, err
	}
	x.t = t
	var ops tally
	err = t.do("unit fleet-campaign", func() (err error) {
		ops, err = x.run(ctx)
		return err
	})
	if err == nil {
		for _, id := range x.ids {
			journals, gerr := filepath.Glob(filepath.Join(x.dir, "studies", id, "worker-*.jsonl"))
			if gerr != nil || len(journals) == 0 {
				err = fmt.Errorf("study %s: no worker journals (%v)", id, gerr)
				break
			}
			if err = t.do("ckpt.merge_files", func() error {
				_, merr := ckpt.MergeFiles(io.Discard, journals...)
				return merr
			}); err != nil {
				break
			}
		}
	}
	if cerr := x.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, ops, err
	}
	for i := 0; i < 50; i++ {
		dir := filepath.Join(f.scratch, fmt.Sprintf("lease-%d", i))
		if err := t.do("lease.claim", func() error {
			mgr, err := lease.New(dir, "flowbench", "probe", lease.Options{})
			if err != nil {
				return err
			}
			if _, err := mgr.TryClaim(ctx, 1); err != nil {
				return err
			}
			return mgr.Complete()
		}); err != nil {
			return nil, ops, err
		}
		os.RemoveAll(dir)
	}
	snap := x.reg.Snapshot().Counters
	hits, misses, puts := snap["engine.disk_hits"], snap["engine.disk_misses"], snap["engine.disk_puts"]
	m := metricSet{}
	m.set("fleet.submit_ms", "ms", t.medianOf("fleet.submit", time.Millisecond))
	m.set("fleet.status_ms", "ms", t.medianOf("fleet.status", time.Millisecond))
	m.set("fleet.result_ms", "ms", t.medianOf("fleet.result", time.Millisecond))
	m.set("fleet.study_s", "s", t.medianOf("fleet.study", time.Second))
	m.set("ckpt.merge_ms", "ms", t.medianOf("ckpt.merge_files", time.Millisecond))
	m.set("lease.claim_ms", "ms", t.medianOf("lease.claim", time.Millisecond))
	m.set("store.disk_hits", "count", float64(hits))
	m.set("store.disk_puts", "count", float64(puts))
	m.set("store.hit_ratio", "ratio", float64(hits)/float64(hits+misses))
	return m, ops, nil
}
