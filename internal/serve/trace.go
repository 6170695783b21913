// Package serve turns the one-shot evaluator into a traffic simulator: it
// replays an arrival trace of inference requests against one multichip
// package, time-multiplexing multiple models on the fabric with configurable
// batching and FIFO queueing, and reports latency percentiles, throughput
// and fabric utilization per scenario.
//
// The workload format is CHIPSIM's arrival-trace CSV
// (`net_idx,inject_time_us,network,num_inputs`), parsed with the same
// line-numbered-error contract as the model-description parser
// (workload.Parse). The serving loop is a deterministic discrete-event
// simulation whose per-request service times come from the memoized
// evaluation engine (engine.EvalModel / EvalScenario) — the
// analytical-model-as-inner-loop approach of DNN-Chip Predictor — so a trace
// of thousands of requests costs a handful of layer searches. Scenarios
// compose with hardware.FaultMask (degraded fabric under live load) and
// Config.Topology, which makes the same trace replayable across ring, mesh,
// torus and yield scenarios.
package serve

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"nnbaton/internal/workload"
)

// Request is one inference request of an arrival trace.
type Request struct {
	// NetIdx is the unique network-instance id of the trace line.
	NetIdx int
	// InjectUS is the injection (arrival) time in microseconds.
	InjectUS float64
	// Model is the canonical zoo model name (workload.CanonicalName).
	Model string
	// Inputs is the number of inputs this request carries (num_inputs ≥ 1).
	Inputs int
	// Line is the 1-based source line, for diagnostics.
	Line int
}

// Trace is a parsed arrival trace: requests in injection order.
type Trace struct {
	Requests []Request
}

// Models returns the distinct canonical model names of the trace in
// first-appearance order.
func (t Trace) Models() []string {
	seen := make(map[string]bool)
	var out []string
	for _, r := range t.Requests {
		if !seen[r.Model] {
			seen[r.Model] = true
			out = append(out, r.Model)
		}
	}
	return out
}

// Inputs returns the total number of inputs across every request.
func (t Trace) Inputs() int {
	n := 0
	for _, r := range t.Requests {
		n += r.Inputs
	}
	return n
}

// header is the CHIPSIM CSV header; ParseTrace accepts it (once) as the
// first content line so exported workload files round-trip verbatim.
const header = "net_idx,inject_time_us,network,num_inputs"

// ParseTrace reads a CHIPSIM-compatible arrival-trace CSV. Grammar (one
// request per line, '#' starts a comment, the canonical header line is
// accepted as the first content line):
//
//	net_idx,inject_time_us,network,num_inputs
//	1,0,alexnet,1
//	2,100,resnet50,2
//
// Validation mirrors workload.Parse's contract — every rejection carries its
// line number: net_idx must be a positive, trace-unique integer;
// inject_time_us must be a non-negative number and must not decrease between
// consecutive requests (simultaneous arrivals are allowed); network must be
// a zoo model name (workload.CanonicalName); num_inputs must be a positive
// integer.
func ParseTrace(r io.Reader) (Trace, error) {
	sc := bufio.NewScanner(r)
	var t Trace
	seenIdx := make(map[int]int) // net_idx -> line
	lineNo := 0
	sawContent := false
	lastInject := 0.0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fail := func(format string, a ...interface{}) (Trace, error) {
			return Trace{}, fmt.Errorf("serve: line %d: %s", lineNo, fmt.Sprintf(format, a...))
		}
		if !sawContent && normalizeHeader(line) == header {
			sawContent = true
			continue
		}
		sawContent = true
		fields := strings.Split(line, ",")
		if len(fields) != 4 {
			return fail("want 4 comma-separated fields (%s), got %d", header, len(fields))
		}
		for i := range fields {
			fields[i] = strings.TrimSpace(fields[i])
		}
		idx, err := strconv.Atoi(fields[0])
		if err != nil || idx <= 0 {
			return fail("net_idx %q must be a positive integer", fields[0])
		}
		if prev, dup := seenIdx[idx]; dup {
			return fail("duplicate net_idx %d (first used on line %d)", idx, prev)
		}
		inject, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || inject < 0 || inject != inject || inject > 1e18 {
			return fail("inject_time_us %q must be a finite non-negative number", fields[1])
		}
		if len(t.Requests) > 0 && inject < lastInject {
			return fail("inject_time_us %v decreases below the previous request's %v (trace must be time-ordered)", inject, lastInject)
		}
		model, ok := workload.CanonicalName(fields[2])
		if !ok {
			return fail("unknown model %q (want %s)", fields[2], strings.Join(workload.ZooNames(), "|"))
		}
		inputs, err := strconv.Atoi(fields[3])
		if err != nil || inputs <= 0 {
			return fail("num_inputs %q must be a positive integer", fields[3])
		}
		seenIdx[idx] = lineNo
		lastInject = inject
		t.Requests = append(t.Requests, Request{
			NetIdx: idx, InjectUS: inject, Model: model, Inputs: inputs, Line: lineNo,
		})
	}
	if err := sc.Err(); err != nil {
		return Trace{}, fmt.Errorf("serve: reading trace: %w", err)
	}
	if len(t.Requests) == 0 {
		return Trace{}, fmt.Errorf("serve: empty trace")
	}
	return t, nil
}

// normalizeHeader lowercases and strips spaces so "Net_Idx, Inject_Time_US,
// ..." still matches the canonical header.
func normalizeHeader(line string) string {
	return strings.ReplaceAll(strings.ToLower(line), " ", "")
}

// ReferenceTrace generates the deterministic reference workload of the
// serving benchmarks and the ext-serving experiment: n requests mixing the
// given models, arrivals spaced by meanGapUS with ±50% deterministic jitter
// and batch sizes cycling 1..4, from a fixed linear-congruential stream (no
// global randomness — the same arguments always produce the same trace).
func ReferenceTrace(n int, meanGapUS float64, models ...string) Trace {
	if len(models) == 0 {
		models = []string{"alexnet", "darknet19"}
	}
	var t Trace
	// Numerical Recipes LCG; only low-entropy jitter is needed here.
	state := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33
	}
	inject := 0.0
	for i := 0; i < n; i++ {
		model := models[i%len(models)]
		if c, ok := workload.CanonicalName(model); ok {
			model = c
		}
		jitter := 0.5 + float64(next()%1000)/1000.0 // [0.5, 1.5)
		if i > 0 {
			inject += meanGapUS * jitter
		}
		t.Requests = append(t.Requests, Request{
			NetIdx:   i + 1,
			InjectUS: inject,
			Model:    model,
			Inputs:   1 + int(next()%4),
			Line:     i + 1,
		})
	}
	return t
}
