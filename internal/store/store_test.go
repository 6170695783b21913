package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nnbaton/internal/obs"
)

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("alpha", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("beta", []byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("alpha", []byte("three")); err != nil { // later wins
		t.Fatal(err)
	}
	if v, ok := s.Get("alpha"); !ok || string(v) != "three" {
		t.Errorf("Get(alpha) = %q, %v", v, ok)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh open sees everything the first process wrote.
	s2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s2.Get("alpha"); !ok || string(v) != "three" {
		t.Errorf("reopened Get(alpha) = %q, %v", v, ok)
	}
	if v, ok := s2.Get("beta"); !ok || string(v) != "two" {
		t.Errorf("reopened Get(beta) = %q, %v", v, ok)
	}
	st := s2.Stats()
	if st.Records != 2 || st.Segments != 1 || st.Corrupt != 0 || st.Torn != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestStoreTwoWritersShareDirectory(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put("ka", []byte("va")); err != nil {
		t.Fatal(err)
	}
	if err := b.Put("kb", []byte("vb")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	b.Close()
	if got := len(segFiles(t, dir)); got != 2 {
		t.Fatalf("segments on disk = %d, want 2 (one per writer)", got)
	}
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]string{"ka": "va", "kb": "vb"} {
		if v, ok := s.Get(k); !ok || string(v) != want {
			t.Errorf("Get(%s) = %q, %v, want %q", k, v, ok, want)
		}
	}
}

// TestStoreTornTail crashes a writer mid-record (simulated by truncating the
// segment at every offset inside the final record) and proves the survivors
// load and the tail is never served. A later writer appends to its own
// segment, so the torn one is never written after and needs no repair.
func TestStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("whole", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("tail", bytes.Repeat([]byte("x"), 100)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	seg := segFiles(t, dir)[0]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// The last record starts after header + first record.
	firstEnd := segHeaderLen + recHeaderLen + len("whole") + len("kept")
	for cut := firstEnd + 1; cut < len(data); cut++ {
		cutDir := t.TempDir()
		torn := filepath.Join(cutDir, "w.seg")
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(cutDir, nil)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if v, ok := s2.Get("whole"); !ok || string(v) != "kept" {
			t.Fatalf("cut %d: surviving record lost: %q, %v", cut, v, ok)
		}
		if _, ok := s2.Get("tail"); ok {
			t.Fatalf("cut %d: torn record served", cut)
		}
		if st := s2.Stats(); st.Torn != 1 {
			t.Fatalf("cut %d: torn = %d, want 1", cut, st.Torn)
		}
		if err := s2.Put("after", []byte("new")); err != nil {
			t.Fatal(err)
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
		s3, err := Open(cutDir, nil)
		if err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(torn)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != int64(cut) {
			t.Fatalf("cut %d: torn segment is now %d bytes", cut, fi.Size())
		}
		if st := s3.Stats(); st.Torn != 1 || st.Records != 2 || st.Corrupt != 0 {
			t.Fatalf("cut %d: after a later writer torn=%d records=%d corrupt=%d, want 1, 2, 0",
				cut, st.Torn, st.Records, st.Corrupt)
		}
		if _, ok := s3.Get("tail"); ok {
			t.Fatalf("cut %d: torn record served after a later writer", cut)
		}
	}
}

// TestStoreCorruptRecordQuarantined flips every byte of a mid-file record in
// turn: the corrupt record must never be served, records on either side must
// survive, and the decoder must not panic.
func TestStoreCorruptRecordQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range [][2]string{{"first", "0000"}, {"victim", "1111"}, {"last", "2222"}} {
		if err := s.Put(kv[0], []byte(kv[1])); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	seg := segFiles(t, dir)[0]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	recLen := recHeaderLen + len("victim") + len("1111")
	start := segHeaderLen + recHeaderLen + len("first") + len("0000")
	for off := start; off < start+recLen; off++ {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0xFF
		cutDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cutDir, "w.seg"), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(cutDir, nil)
		if err != nil {
			t.Fatalf("flip @%d: %v", off, err)
		}
		if v, ok := s2.Get("victim"); ok && string(v) == "1111" {
			// A flip inside the value that still CRC-matches is impossible;
			// a flip that leaves the record fully intact means we missed it.
			t.Fatalf("flip @%d: corrupt record served verbatim", off)
		}
		if v, ok := s2.Get("first"); !ok || string(v) != "0000" {
			t.Fatalf("flip @%d: preceding record lost", off)
		}
		if v, ok := s2.Get("last"); !ok || string(v) != "2222" {
			t.Fatalf("flip @%d: following record lost (no resync)", off)
		}
	}
}

func TestStoreQuarantinePoisonsUntilPut(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("bad-payload")); err != nil {
		t.Fatal(err)
	}
	s.Quarantine("k", os.ErrInvalid)
	if _, ok := s.Get("k"); ok {
		t.Fatal("quarantined key served")
	}
	if err := s.Put("k", []byte("recomputed")); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get("k"); !ok || string(v) != "recomputed" {
		t.Errorf("recomputed Put did not clear quarantine: %q, %v", v, ok)
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Errorf("quarantined = %d, want 1", st.Quarantined)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine.log")); err != nil {
		t.Errorf("quarantine journal missing: %v", err)
	}
}

func TestStoreIncompatibleSegmentIgnored(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "old.seg"), []byte("NOTASTORE........"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A future format version is ignored whole, not misparsed.
	hdr := SegmentHeader()
	hdr[segMagicLen] = 0xFE
	if err := os.WriteFile(filepath.Join(dir, "future.seg"), hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Incompatible != 2 || st.Segments != 0 || st.Records != 0 {
		t.Errorf("stats = %+v, want 2 incompatible and nothing loaded", st)
	}
}

func TestStoreNilSafe(t *testing.T) {
	var s *Store
	if _, ok := s.Get("k"); ok {
		t.Error("nil Get hit")
	}
	if err := s.Put("k", nil); err != nil {
		t.Error(err)
	}
	s.Quarantine("k", nil)
	if s.Stats().Records != 0 {
		t.Error("nil accessors")
	}
	if err := s.Close(); err != nil {
		t.Error(err)
	}
}

func TestStoreCounters(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	s, err := Open(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("store.puts").Value(); got != 1 {
		t.Errorf("store.puts = %d", got)
	}
	if got := reg.Gauge("store.records").Value(); got != 1 {
		t.Errorf("store.records = %d", got)
	}
}

func TestEnsureWritableDirFailsFast(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("root ignores permission bits")
	}
	parent := t.TempDir()
	locked := filepath.Join(parent, "locked")
	if err := os.Mkdir(locked, 0o555); err != nil {
		t.Fatal(err)
	}
	if err := EnsureWritableDir(filepath.Join(locked, "cache")); err == nil {
		t.Error("unwritable parent accepted")
	}
	if err := EnsureWritableDir(locked); err == nil {
		t.Error("read-only directory accepted")
	}
	if err := EnsureWritableDir(""); err == nil {
		t.Error("empty path accepted")
	}
}

func TestEncodeRecordBounds(t *testing.T) {
	if _, err := EncodeRecord(nil, "", nil); err == nil {
		t.Error("empty key accepted")
	}
	if _, err := EncodeRecord(nil, strings.Repeat("k", MaxKeyLen+1), nil); err == nil {
		t.Error("oversized key accepted")
	}
}
