package ckpt

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type val struct {
	N int    `json:"n"`
	S string `json:"s"`
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := OpenWith(path, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append("a", val{N: 1, S: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append("b", val{N: 2, S: "y"}); err != nil {
		t.Fatal(err)
	}
	if j.Appended() != 2 || j.Len() != 2 {
		t.Fatalf("appended=%d len=%d", j.Appended(), j.Len())
	}
	// Same-process lookup serves appended records.
	raw, ok := j.Lookup("a")
	if !ok || string(raw) != `{"n":1,"s":"x"}` {
		t.Fatalf("lookup a: ok=%v raw=%s", ok, raw)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append("c", val{}); err == nil {
		t.Error("append after close must error")
	}

	// Reopen in resume mode: both records load.
	j2, err := OpenWith(path, Options{Resume: true, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 2 || j2.Torn() != 0 {
		t.Fatalf("resume: len=%d torn=%d", j2.Len(), j2.Torn())
	}
	if _, ok := j2.Lookup("b"); !ok {
		t.Error("record b lost across reopen")
	}
}

func TestJournalFreshOpenTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, _ := OpenWith(path, Options{Fsync: true})
	j.Append("a", val{N: 1})
	j.Close()
	j2, err := OpenWith(path, Options{Fsync: true}) // fresh run: stale records must not replay
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if _, ok := j2.Lookup("a"); ok || j2.Len() != 0 {
		t.Error("fresh open must truncate stale records")
	}
}

func TestJournalTornTailSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, _ := OpenWith(path, Options{Fsync: true})
	j.Append("a", val{N: 1})
	j.Append("b", val{N: 2})
	j.Close()
	// Simulate a crash mid-append: chop bytes off the final line.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenWith(path, Options{Resume: true, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 1 || j2.Torn() != 1 {
		t.Fatalf("after torn tail: len=%d torn=%d, want 1 and 1", j2.Len(), j2.Torn())
	}
	if _, ok := j2.Lookup("a"); !ok {
		t.Error("intact record lost")
	}
	if _, ok := j2.Lookup("b"); ok {
		t.Error("torn record must not be trusted")
	}
	// The journal stays appendable after a torn load: the re-evaluated point
	// re-journals, and the later record wins on the next load.
	if err := j2.Append("b", val{N: 3}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, err := OpenWith(path, Options{Resume: true, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	raw, ok := j3.Lookup("b")
	if !ok || string(raw) != `{"n":3,"s":""}` {
		t.Fatalf("later record must win: ok=%v raw=%s", ok, raw)
	}
}

// TestJournalCrashTruncationSweep simulates a crash at every possible byte
// offset of the journal file. For each cut, resume must recover exactly the
// whole records before the cut, and a subsequent append must leave the file
// byte-identical to the whole-record prefix plus the new line — the torn
// bytes are physically removed, never concatenated onto fresh records.
func TestJournalCrashTruncationSweep(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.jsonl")
	j, err := OpenWith(base, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"a", "b", "c"}
	for i, k := range keys {
		if err := j.Append(k, val{N: i + 1, S: strings.Repeat(k, 5)}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	// bounds[r] is the byte offset just past record r's newline.
	var bounds []int
	for off, b := range data {
		if b == '\n' {
			bounds = append(bounds, off+1)
		}
	}
	if len(bounds) != len(keys) {
		t.Fatalf("found %d record boundaries, want %d", len(bounds), len(keys))
	}
	appendedLine := `{"key":"z","value":{"n":99,"s":""}}` + "\n"
	for cut := 0; cut <= len(data); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("cut%d.jsonl", cut))
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		whole := 0
		for _, b := range bounds {
			if cut >= b {
				whole++
			}
		}
		j2, err := OpenWith(path, Options{Resume: true, Fsync: true})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if j2.Len() != whole {
			t.Errorf("cut %d: recovered %d records, want %d", cut, j2.Len(), whole)
		}
		wantTorn := 0
		if cut > 0 && (whole == 0 || cut > bounds[whole-1]) {
			wantTorn = 1
		}
		if j2.Torn() != wantTorn {
			t.Errorf("cut %d: torn=%d, want %d", cut, j2.Torn(), wantTorn)
		}
		for r, k := range keys {
			if _, ok := j2.Lookup(k); ok != (r < whole) {
				t.Errorf("cut %d: lookup %q = %v, want %v", cut, k, ok, r < whole)
			}
		}
		if err := j2.Append("z", val{N: 99}); err != nil {
			t.Fatalf("cut %d: append after torn resume: %v", cut, err)
		}
		j2.Close()
		prefix := 0
		if whole > 0 {
			prefix = bounds[whole-1]
		}
		want := string(data[:prefix]) + appendedLine
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("cut %d: file after append = %q, want %q", cut, got, want)
		}
		// A second resume sees a clean journal: no torn lines, every record.
		j3, err := OpenWith(path, Options{Resume: true, Fsync: true})
		if err != nil {
			t.Fatalf("cut %d: second resume: %v", cut, err)
		}
		if j3.Torn() != 0 || j3.Len() != whole+1 {
			t.Errorf("cut %d: second resume torn=%d len=%d, want 0 and %d",
				cut, j3.Torn(), j3.Len(), whole+1)
		}
		j3.Close()
	}
}

func TestJournalLaterRecordWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, _ := OpenWith(path, Options{Fsync: true})
	j.Append("k", val{N: 1})
	j.Append("k", val{N: 2})
	j.Close()
	j2, err := OpenWith(path, Options{Resume: true, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	raw, _ := j2.Lookup("k")
	if string(raw) != `{"n":2,"s":""}` {
		t.Fatalf("raw = %s, want the later record", raw)
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	if err := j.Append("k", val{}); err != nil {
		t.Error(err)
	}
	if _, ok := j.Lookup("k"); ok {
		t.Error("nil journal must miss")
	}
	if j.Len() != 0 || j.Appended() != 0 || j.Torn() != 0 {
		t.Error("nil journal accessors must zero")
	}
	if err := j.Close(); err != nil {
		t.Error(err)
	}
}
