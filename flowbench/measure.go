package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// sample is what one timed repetition costs the process.
type sample struct {
	wall, cpu  time.Duration
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timed runs f once and reports its wall time, CPU time, heap allocation
// and garbage collection. The heap is collected first, so each repetition
// starts from the same live set whatever the previous one left behind.
func timed(f func() error) (sample, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuTime(), time.Now()
	err := f()
	wall, cpu := time.Since(t0), cpuTime()-c0
	runtime.ReadMemStats(&m1)
	return sample{
		wall: wall, cpu: cpu,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		gcCycles:   m1.NumGC - m0.NumGC,
		gcPause:    time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
	}, err
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuJiffies is the host's aggregate CPU time from /proc/stat: the steal
// column (time the hypervisor ran someone else while this guest wanted a
// CPU) and the sum of all columns.
type cpuJiffies struct{ steal, total uint64 }

func readJiffies() cpuJiffies {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuJiffies{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	var j cpuJiffies
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			continue
		}
		if i < 8 { // guest columns are already counted in user and nice
			j.total += v
		}
		if i == 7 {
			j.steal = v
		}
	}
	return j
}

// referenceSink keeps the reference computation's result alive.
var referenceSink uint64

// referenceWork is a fixed single-goroutine computation that touches none
// of the program's code: integer mixing over a 4 MiB table, so it feels the
// CPU's speed and cache like the workloads do. Timed before and after the
// repetitions, it shows whether the machine, not the program, changed
// speed during a run.
func referenceWork() (wall, cpu time.Duration) {
	const n = 1 << 19
	table := make([]uint64, n)
	c0, t0 := cpuTime(), time.Now()
	x := uint64(0x9E3779B97F4A7C15)
	for round := 0; round < 24; round++ {
		for i := range table {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			j := x & (n - 1)
			table[j] += x ^ table[i]
		}
	}
	referenceSink += table[x&(n-1)]
	return time.Since(t0), cpuTime() - c0
}

// span is one traced call into a layer of the program.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// Calls is how many calls the span covers: probes of nanosecond-scale
	// functions time a whole batch under one span, so the per-call time is
	// (EndNS-StartNS)/Calls.
	Calls int `json:"calls"`
}

// tracer holds the spans of a traced run in memory until the run ends.
// Spans opened while a pass span is open are its children.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	pass   int // ID of the open pass span, 0 = none
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// start opens a span covering calls calls and returns the function that
// closes it.
func (t *tracer) start(name string, calls int) func() {
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: t.pass, Name: name,
		StartNS: time.Since(t.origin).Nanoseconds(), Calls: calls})
	t.mu.Unlock()
	return func() {
		end := time.Since(t.origin).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].EndNS = end
		t.mu.Unlock()
	}
}

// do runs f under a span and returns f's error.
func (t *tracer) do(name string, f func() error) error {
	defer t.start(name, 1)()
	return f()
}

// beginPass opens the span of one workload's traced pass; the spans opened
// until the returned function runs are its children.
func (t *tracer) beginPass(name string) func() {
	end := t.start(name, 1)
	t.mu.Lock()
	t.pass = len(t.spans)
	t.mu.Unlock()
	return func() {
		end()
		t.mu.Lock()
		t.pass = 0
		t.mu.Unlock()
	}
}

// perCallNS returns the per-call duration in nanoseconds of every closed
// span named name.
func (t *tracer) perCallNS(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.EndNS > 0 && s.Calls > 0 {
			out = append(out, float64(s.EndNS-s.StartNS)/float64(s.Calls))
		}
	}
	return out
}

// medianOf returns the median per-call duration of the named spans in the
// given unit (NaN when the name has no span, which the run reports as an
// error rather than a zero).
func (t *tracer) medianOf(name string, unit time.Duration) float64 {
	ns := t.perCallNS(name)
	if len(ns) == 0 {
		return math.NaN()
	}
	return median(ns) / float64(unit)
}

// writeFile writes the spans as JSON.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	data, err := json.MarshalIndent(t.spans, "", " ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
