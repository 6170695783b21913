package engine

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"nnbaton/internal/hardware"
	"nnbaton/internal/mapper"
	"nnbaton/internal/store"
)

// modelFingerprint reduces an evaluation to its decision-relevant bytes: the
// chosen mapping, energy breakdown and cycles per layer, in layer order.
func modelFingerprint(t *testing.T, res mapper.ModelResult) []byte {
	t.Helper()
	type lf struct {
		Map    any   `json:"map"`
		Energy any   `json:"energy"`
		Cycles int64 `json:"cycles"`
	}
	var fps []lf
	for _, o := range res.Layers {
		fps = append(fps, lf{Map: o.Analysis.Map, Energy: o.Energy, Cycles: o.Cycles})
	}
	raw, err := json.Marshal(fps)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func evalWithCache(t *testing.T, c ResultCache) (*Evaluator, []byte) {
	t.Helper()
	e := NewFromConfig(cm, Config{Cache: c})
	res, err := e.EvalModel(bg, tinyModel(), hardware.CaseStudy(), mapper.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return e, modelFingerprint(t, res)
}

// TestDiskCacheColdWarmByteIdentical is the tentpole acceptance test: a cold
// run populates the persistent cache, a warm run in a fresh process (fresh
// evaluator, reopened store) serves every search from disk without computing
// anything, and the results are byte-identical.
func TestDiskCacheColdWarmByteIdentical(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	eCold, cold := evalWithCache(t, s)
	if st := eCold.Stats(); st.DiskPuts == 0 || st.DiskHits != 0 {
		t.Errorf("cold stats = %+v, want puts and no disk hits", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := store.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	eWarm, warm := evalWithCache(t, s2)
	st := eWarm.Stats()
	if st.Searches != 0 {
		t.Errorf("warm run computed %d searches, want 0", st.Searches)
	}
	if st.DiskHits == 0 || st.DiskCorrupt != 0 {
		t.Errorf("warm stats = %+v, want disk hits and no corruption", st)
	}
	if !bytes.Equal(cold, warm) {
		t.Errorf("warm run differs from cold run:\n%s\nvs\n%s", cold, warm)
	}
}

// TestDiskCachePoisonedSegmentsRecompute scribbles over every cache segment
// body (header kept, so the store still loads the file) and proves the
// degraded cache recomputes to byte-identical results rather than serving
// garbage.
func TestDiskCachePoisonedSegmentsRecompute(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, cold := evalWithCache(t, s)
	s.Close()

	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments written: %v", err)
	}
	hdr := len(store.SegmentHeader())
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for i := hdr; i < len(data); i++ {
			data[i] = 0xAA
		}
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := store.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Stats().Records != 0 {
		t.Fatalf("poisoned store still serves %d records", s2.Stats().Records)
	}
	ePoisoned, recomputed := evalWithCache(t, s2)
	st := ePoisoned.Stats()
	if st.Searches == 0 {
		t.Error("poisoned cache did not degrade to recompute")
	}
	if st.DiskPuts == 0 {
		t.Error("recomputed results not re-persisted")
	}
	if !bytes.Equal(cold, recomputed) {
		t.Errorf("recomputed results differ from the clean run:\n%s\nvs\n%s", cold, recomputed)
	}
}

// poisonCache is a ResultCache serving a syntactically valid but semantically
// corrupt payload for every key it has not yet been handed a real value for —
// the store-level CRC passed but the engine-level revalidation must not.
type poisonCache struct {
	mu          sync.Mutex
	real        map[string][]byte
	poisoned    map[string]bool
	quarantines int
	puts        int
}

func newPoisonCache() *poisonCache {
	return &poisonCache{real: make(map[string][]byte), poisoned: make(map[string]bool)}
}

func (c *poisonCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.real[key]; ok {
		return v, true
	}
	if c.poisoned[key] {
		return nil, false
	}
	// A zero mapping is infeasible on every configuration: decode must fail
	// validation, never panic or return it.
	return []byte(`{"schema":1,"opts":[{"cycles":1}]}`), true
}

func (c *poisonCache) Put(key string, val []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.real[key] = append([]byte(nil), val...)
	delete(c.poisoned, key)
	c.puts++
	return nil
}

func (c *poisonCache) Quarantine(key string, reason error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.poisoned[key] = true
	c.quarantines++
}

// TestDiskCacheCorruptPayloadQuarantined proves the quarantine-and-recompute
// contract at the engine layer: a payload that decodes as JSON but fails
// revalidation is quarantined (never returned), the search recomputes, and
// the recomputed value replaces the poison.
func TestDiskCacheCorruptPayloadQuarantined(t *testing.T) {
	c := newPoisonCache()
	e, poisonedRun := evalWithCache(t, c)
	st := e.Stats()
	if st.DiskCorrupt == 0 || c.quarantines == 0 {
		t.Errorf("corrupt payloads not quarantined: stats %+v, %d quarantines", st, c.quarantines)
	}
	if st.Searches == 0 || c.puts == 0 {
		t.Errorf("quarantined keys not recomputed and re-stored: stats %+v, %d puts", st, c.puts)
	}

	eClean, clean := evalWithCache(t, nil)
	if !bytes.Equal(poisonedRun, clean) {
		t.Errorf("poisoned-cache run differs from uncached run:\n%s\nvs\n%s", poisonedRun, clean)
	}
	if st := eClean.Stats(); st.DiskHits != 0 || st.DiskMisses != 0 {
		t.Errorf("nil cache touched the disk path: %+v", st)
	}

	// The recomputed values are now real: a second run over the same cache
	// serves them from disk.
	e2, warm := evalWithCache(t, c)
	if st := e2.Stats(); st.Searches != 0 || st.DiskHits == 0 {
		t.Errorf("recomputed values not served on the second run: %+v", st)
	}
	if !bytes.Equal(poisonedRun, warm) {
		t.Error("second run over the recovered cache differs")
	}
}

// TestDiskCacheTamperedValuesRejected flips the stored cycles of a real
// cached payload: the CRC layer cannot catch it (the tamper happens above
// it), so the engine's recompute-and-compare validation must.
func TestDiskCacheTamperedValuesRejected(t *testing.T) {
	c := newPoisonCache()
	_, honest := evalWithCache(t, c)
	for key, raw := range c.real {
		var ent diskEntry
		if err := json.Unmarshal(raw, &ent); err != nil {
			t.Fatal(err)
		}
		for i := range ent.Opts {
			ent.Opts[i].Cycles += 7
		}
		tampered, err := json.Marshal(ent)
		if err != nil {
			t.Fatal(err)
		}
		c.real[key] = tampered
	}
	e, recovered := evalWithCache(t, c)
	if st := e.Stats(); st.DiskCorrupt == 0 || st.Searches == 0 {
		t.Errorf("tampered payloads served: %+v", st)
	}
	if !bytes.Equal(honest, recovered) {
		t.Error("tampered cache changed the results")
	}
}

// TestPersistKeySeparation proves the persistent key covers every
// result-affecting input, including the ones Config.String omits.
func TestPersistKeySeparation(t *testing.T) {
	base := searchKey{
		shape: ShapeOf(tinyLayer("l")),
		hw:    HWOf(hardware.CaseStudy()),
		cfg:   cacheCfg(mapper.Config{}.WithDefaults()),
	}
	variants := map[string]func(k searchKey) searchKey{
		"shape": func(k searchKey) searchKey { k.shape.CO++; return k },
		"ol2": func(k searchKey) searchKey {
			hw := hardware.Config(k.hw)
			hw.OL2Bytes *= 2
			k.hw = HWOf(hw)
			return k
		},
		"keeptop":  func(k searchKey) searchKey { k.cfg.KeepTop = 3; return k },
		"rotation": func(k searchKey) searchKey { k.cfg.DisableRotation = true; return k },
		"fault": func(k searchKey) searchKey {
			k.cfg.Fault = hardware.FaultMask{Chiplets: 4, Dead: 0b0010}
			return k
		},
	}
	seen := map[string]string{persistKey(base): "base"}
	for name, mutate := range variants {
		pk := persistKey(mutate(base))
		if prev, dup := seen[pk]; dup {
			t.Errorf("variant %q collides with %q: %s", name, prev, pk)
		}
		seen[pk] = name
	}
	// Workers and counter plumbing must NOT fragment the key.
	withWorkers := base
	withWorkers.cfg.Workers = 8
	if persistKey(cachedKey(withWorkers)) != persistKey(base) {
		t.Error("worker count fragments the persistent key")
	}
}

// cachedKey re-normalizes a key the way SearchAll does.
func cachedKey(k searchKey) searchKey {
	k.cfg = cacheCfg(k.cfg.WithDefaults())
	return k
}
