package engine

import (
	"context"
	"errors"
	"sync"
	"testing"

	"nnbaton/internal/hardware"
	"nnbaton/internal/mapper"
	"nnbaton/internal/workload"
)

var cm = hardware.MustCostModel()

var bg = context.Background()

// tinyLayer is a small, quickly-searchable workload.
func tinyLayer(name string) workload.Layer {
	return workload.Layer{Model: "tiny", Name: name, HO: 16, WO: 16, CO: 32, CI: 16,
		R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
}

// tinyModel repeats one shape three times and adds a second shape: 4 layers,
// 2 unique shapes.
func tinyModel() workload.Model {
	l2 := tinyLayer("conv4")
	l2.CO = 64
	return workload.Model{Name: "tiny", Resolution: 16, Layers: []workload.Layer{
		tinyLayer("conv1"), tinyLayer("conv2"), tinyLayer("conv3"), l2,
	}}
}

func TestShapeOfIgnoresIdentity(t *testing.T) {
	a, b := tinyLayer("a"), tinyLayer("b")
	b.Model = "other"
	if ShapeOf(a) != ShapeOf(b) {
		t.Error("shape key must ignore model/layer names")
	}
	// Groups 0 and 1 are both dense.
	g0, g1 := tinyLayer("g"), tinyLayer("g")
	g0.Groups, g1.Groups = 0, 1
	if ShapeOf(g0) != ShapeOf(g1) {
		t.Error("dense group counts 0 and 1 must share a shape key")
	}
	c := tinyLayer("c")
	c.StrideH = 2
	if ShapeOf(a) == ShapeOf(c) {
		t.Error("differing stride must change the shape key")
	}
}

func TestSearchCacheDedupAndRetag(t *testing.T) {
	e := New(cm)
	hw := hardware.CaseStudy()
	first, err := e.SearchAll(bg, tinyLayer("first"), hw, mapper.Config{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.SearchAll(bg, tinyLayer("second"), hw, mapper.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Searches != 1 {
		t.Errorf("two same-shape requests ran %d searches, want 1", st.Searches)
	}
	if st.Lookups != 2 || st.Hits != 1 {
		t.Errorf("stats = %+v", st)
	}
	if len(first) == 0 || len(first) != len(second) {
		t.Fatalf("option counts differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i].Energy.Total() != second[i].Energy.Total() || first[i].Cycles != second[i].Cycles {
			t.Errorf("option %d differs across cache hit", i)
		}
		if second[i].Analysis.Layer.Name != "second" {
			t.Errorf("cached option not re-identified: layer name %q", second[i].Analysis.Layer.Name)
		}
		if first[i].Analysis == second[i].Analysis {
			t.Error("cache hit aliases the cached Analysis")
		}
	}
	// A different search config is a different cache entry.
	if _, err := e.SearchAll(bg, tinyLayer("third"), hw, mapper.Config{KeepTop: 4}); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Searches; got != 2 {
		t.Errorf("distinct config reused an entry: %d searches", got)
	}
}

func TestSearchSingleflight(t *testing.T) {
	e := New(cm)
	hw := hardware.CaseStudy()
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.SearchAll(bg, tinyLayer("sf"), hw, mapper.Config{}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st := e.Stats()
	if st.Searches != 1 {
		t.Errorf("%d concurrent identical requests ran %d searches, want 1", n, st.Searches)
	}
	if st.Hits+st.Coalesced != n-1 {
		t.Errorf("stats = %+v, want hits+coalesced = %d", st, n-1)
	}
}

func TestSearchCancellation(t *testing.T) {
	e := NewFromConfig(cm, Config{Workers: 1})
	cctx, cancel := context.WithCancel(bg)
	cancel()
	if _, err := e.SearchAll(cctx, tinyLayer("x"), hardware.CaseStudy(), mapper.Config{}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	// The aborted entry must not poison the cache: a live context succeeds.
	if _, err := e.SearchAll(bg, tinyLayer("x"), hardware.CaseStudy(), mapper.Config{}); err != nil {
		t.Errorf("retry after cancellation failed: %v", err)
	}
	if _, err := e.EvalModel(cctx, tinyModel(), hardware.CaseStudy(), mapper.Config{}); !errors.Is(err, context.Canceled) {
		t.Errorf("EvalModel err = %v, want context.Canceled", err)
	}
}

func TestEvalLayerUnmappable(t *testing.T) {
	e := New(cm)
	bad := workload.Layer{Model: "t", Name: "bad", HO: 1, WO: 1, CO: 2, CI: 8,
		R: 1, S: 1, StrideH: 1, StrideW: 1}
	if _, err := e.EvalLayer(bg, bad, hardware.CaseStudy(), mapper.Config{}); err == nil {
		t.Error("expected no-valid-mapping error")
	}
}

func TestEvalModelDedupsShapes(t *testing.T) {
	e := New(cm)
	m := tinyModel()
	res, err := e.EvalModel(bg, m, hardware.CaseStudy(), mapper.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Layers) != len(m.Layers) || !res.Complete() {
		t.Fatalf("mapped %d of %d layers", len(res.Layers), len(m.Layers))
	}
	if got := e.Stats().Searches; got != 2 {
		t.Errorf("4 layers of 2 shapes ran %d searches, want 2", got)
	}
	// Per-layer results carry their own identity.
	for i, o := range res.Layers {
		if o.Analysis.Layer.Name != m.Layers[i].Name {
			t.Errorf("layer %d identity = %q, want %q", i, o.Analysis.Layer.Name, m.Layers[i].Name)
		}
	}
}

func TestEvalSweepRecordsPointError(t *testing.T) {
	e := New(cm)
	bad := workload.Model{Name: "bad", Resolution: 8, Layers: []workload.Layer{
		{Model: "bad", Name: "l", HO: 1, WO: 1, CO: 2, CI: 8, R: 1, S: 1, StrideH: 1, StrideW: 1},
	}}
	hws := []hardware.Config{hardware.CaseStudy()}
	pts, err := e.EvalSweep(bg, []workload.Model{bad}, hws, mapper.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Err == nil {
		t.Fatalf("sweep point did not record the failure: %+v", pts)
	}
}

func TestParallelFor(t *testing.T) {
	got := make([]int, 100)
	if err := ParallelFor(bg, len(got), 0, func(i int) error {
		got[i] = i * i
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("index %d = %d", i, v)
		}
	}
	// n=0 and n=1 paths.
	if err := ParallelFor(bg, 0, 0, func(int) error { t.Fatal("must not run"); return nil }); err != nil {
		t.Fatal(err)
	}
	ran := false
	if err := ParallelFor(bg, 1, 4, func(int) error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("single-element loop skipped")
	}
}

func TestParallelForError(t *testing.T) {
	boom := errors.New("boom")
	var mu sync.Mutex
	ran := 0
	err := ParallelFor(bg, 1000, 4, func(i int) error {
		mu.Lock()
		ran++
		mu.Unlock()
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
	if ran == 1000 {
		t.Error("error did not stop dispatch")
	}
}

func TestParallelForCancellation(t *testing.T) {
	cctx, cancel := context.WithCancel(bg)
	cancel()
	if err := ParallelFor(cctx, 100, 4, func(int) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	// Sequential path honors cancellation too.
	if err := ParallelFor(cctx, 100, 1, func(int) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("sequential err = %v, want context.Canceled", err)
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Lookups: 10, Searches: 2, Hits: 7, Coalesced: 1}
	if s.String() == "" {
		t.Error("empty stats string")
	}
	if (Stats{}).String() == "" {
		t.Error("empty zero-stats string")
	}
}
