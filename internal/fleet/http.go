package fleet

// The HTTP surface of the coordinator. Deliberately plain net/http + JSON:
// the control plane carries study specs and heartbeats, not evaluation data
// — the data plane stays on the shared filesystem (worker journals, lease
// files, the persistent result cache), exactly like the CLI sharded sweeps.
//
//	POST   /v1/studies                 submit a study        202 {"id"} | 400 | 429+Retry-After
//	GET    /v1/studies                 list studies          200 [status...]
//	GET    /v1/studies/{id}            study status          200 status | 404
//	GET    /v1/studies/{id}/result     merged result journal 200 x-ndjson | 404 | 409
//	DELETE /v1/studies/{id}            cancel                200 | 404 | 409
//	POST   /v1/workers                 register              200 lease
//	POST   /v1/workers/{name}/heartbeat                      200 {"abandon","drain"} | 404
//	POST   /v1/workers/{name}/task     acquire work          200 {"task","drain","gen"} | 404
//	POST   /v1/workers/{name}/wait     idle until gen moves  200 | 404 | 503
//	POST   /v1/workers/{name}/done     report a task         200
//	GET    /healthz                    liveness              200 | 503
//	GET    /readyz                     readiness             200 | 503
//	GET    /metrics                    obs registry snapshot 200 json

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
)

// maxBodyBytes bounds request bodies: study specs are small; a multi-MB
// submission is a mistake or an attack, not a study.
const maxBodyBytes = 1 << 20

// Handler returns the coordinator's HTTP API.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, c.instrument(pattern, h))
	}
	route("POST /v1/studies", c.handleSubmit)
	route("GET /v1/studies", c.handleList)
	route("GET /v1/studies/{id}", c.handleStatus)
	route("GET /v1/studies/{id}/result", c.handleResult)
	route("DELETE /v1/studies/{id}", c.handleCancel)
	route("POST /v1/workers", c.handleRegister)
	route("POST /v1/workers/{name}/heartbeat", c.handleHeartbeat)
	route("POST /v1/workers/{name}/task", c.handleTask)
	route("POST /v1/workers/{name}/wait", c.handleWait)
	route("POST /v1/workers/{name}/done", c.handleDone)
	route("GET /healthz", c.handleHealthz)
	route("GET /readyz", c.handleReadyz)
	route("GET /metrics", c.handleMetrics)
	return mux
}

// instrument wraps a route with a request counter and latency histogram.
func (c *Coordinator) instrument(pattern string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.reg.Counter("fleet.http.requests").Inc()
		defer c.reg.Span("fleet.http " + pattern)()
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		h(w, r)
	})
}

// writeJSON renders v with a status code.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck — client gone is client's problem
}

type errorBody struct {
	Error string `json:"error"`
}

// writeError maps coordinator errors onto HTTP statuses; retryable
// rejections carry Retry-After.
func writeError(w http.ResponseWriter, err error) {
	var re *RetryableError
	switch {
	case errors.As(err, &re):
		secs := int(math.Ceil(re.After.Seconds()))
		w.Header().Set("Retry-After", fmt.Sprint(max(secs, 1)))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: re.Error()})
	case errors.Is(err, ErrUnknownStudy), errors.Is(err, ErrUnknownWorker):
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
	case errors.Is(err, ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

// decodeBody parses a JSON request body into v, rejecting unknown fields so
// a typo'd spec field fails loudly instead of silently defaulting.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("fleet: request body: %w", err)
	}
	return nil
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec StudySpec
	if err := decodeBody(r, &spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	id, err := c.Submit(spec)
	if err != nil {
		var re *RetryableError
		if !errors.As(err, &re) && !errors.Is(err, ErrClosed) {
			// Validation failure: the submission itself is bad.
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
			return
		}
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, struct {
		ID string `json:"id"`
	}{id})
}

func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.List())
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := c.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	path, err := c.ResultPath(r.PathValue("id"))
	if err != nil {
		if errors.Is(err, ErrUnknownStudy) {
			writeError(w, err)
		} else {
			writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	w.Write(data) //nolint:errcheck
}

func (c *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	err := c.Cancel(r.PathValue("id"))
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, struct{}{})
	case errors.Is(err, ErrUnknownStudy):
		writeError(w, err)
	default:
		writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
	}
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name string `json:"name"`
	}
	if err := decodeBody(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	ws, err := c.RegisterWorker(req.Name)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ws)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Study string `json:"study,omitempty"`
	}
	if err := decodeBody(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	abandon, drain, err := c.Heartbeat(r.PathValue("name"), req.Study)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Abandon bool `json:"abandon"`
		Drain   bool `json:"drain"`
	}{abandon, drain})
}

func (c *Coordinator) handleTask(w http.ResponseWriter, r *http.Request) {
	poll, err := c.NextTask(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, poll)
}

func (c *Coordinator) handleWait(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Gen uint64 `json:"gen"`
	}
	if err := decodeBody(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if err := c.Wait(r.Context(), r.PathValue("name"), req.Gen); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func (c *Coordinator) handleDone(w http.ResponseWriter, r *http.Request) {
	var rep Report
	if err := decodeBody(r, &rep); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if err := c.ReportDone(r.PathValue("name"), rep); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if err := c.Healthy(); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"ok"})
}

func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if err := c.Ready(); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	}
	queued, running := 0, 0
	c.mu.Lock()
	queued, running = c.counts()
	workers := len(c.workers)
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, struct {
		Status  string `json:"status"`
		Queued  int    `json:"queued"`
		Running int    `json:"running"`
		Workers int    `json:"workers"`
	}{"ready", queued, running, workers})
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if c.reg == nil {
		writeJSON(w, http.StatusOK, struct{}{})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	c.reg.WriteJSON(w) //nolint:errcheck
}
