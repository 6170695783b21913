// Package ckpt is the crash-safe checkpoint journal of the DSE sweeps: an
// append-only JSONL file of keyed records, one per completed sweep point.
// Long explorations (the Fig 15 pre-design sweep crosses every compute
// allocation with every Table II memory combination over whole model zoos)
// journal each point as it completes; after a crash or kill, reopening the
// journal in resume mode replays the completed points and only the remainder
// is re-evaluated.
//
// Crash safety relies on the append discipline: every record is marshaled
// first and written with a single Write call on an O_APPEND descriptor, so
// the file only ever grows by whole records plus at most one torn tail. The
// loader tolerates exactly that — a malformed final line is counted and
// skipped, never trusted. An opt-in fsync-per-record mode (Options.Fsync)
// additionally survives OS crashes and power loss at the cost of one fsync
// per point; without it a killed process still loses nothing, since the
// write has reached the page cache.
//
// A sharded sweep writes one journal per shard; MergeFiles folds any number
// of journals into one canonical stream — records sorted by key, shard
// metadata stripped, divergent duplicates rejected — so an N-worker run can
// be proved byte-identical to a single-process one.
package ckpt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
)

// record is the wire format of one journal line.
type record struct {
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
}

// MetaPrefix marks journal keys that describe the journal itself (the study
// signature and shard range of a sharded worker) rather than sweep points.
// Meta records replay like any other key but are stripped by MergeFiles, so
// a merged shard set stays comparable to a single-process journal.
const MetaPrefix = "meta|"

// Options tunes OpenWith.
type Options struct {
	// Resume loads existing records for Lookup replay; off, an existing
	// file is truncated — a fresh sweep must not replay stale points.
	Resume bool
	// Fsync syncs the file after every Append (survives OS crashes and
	// power loss, not just killed processes). Off by default: the single
	// O_APPEND write per record already bounds a kill to one torn tail.
	Fsync bool
}

// Journal is an append-only keyed JSONL checkpoint file. All methods are
// safe for concurrent use and safe on a nil receiver (the disabled path:
// Lookup misses, Append discards).
type Journal struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	fsync    bool
	seen     map[string]json.RawMessage
	appended int
	torn     int
}

// OpenWith opens (or creates) the journal at path under an explicit resume
// and durability policy. The torn tail of a crashed run (a final line
// without a newline, or undecodable) is skipped and truncated away.
func OpenWith(path string, o Options) (*Journal, error) {
	flags := os.O_CREATE | os.O_RDWR | os.O_APPEND
	if !o.Resume {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	j := &Journal{f: f, path: path, fsync: o.Fsync, seen: make(map[string]json.RawMessage)}
	if o.Resume {
		if err := j.load(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return j, nil
}

// ValidateWritable proves the journal path can be created and appended to —
// the CLIs' line-one -checkpoint validation, so a bad path fails at startup
// instead of minutes into a sweep. The file is created if missing (the run
// would create it anyway) and never truncated or written.
func ValidateWritable(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("ckpt: checkpoint path is not writable: %w", err)
	}
	return f.Close()
}

// load replays the existing journal records and truncates a torn tail away:
// a subsequent append must start on a fresh line, not concatenate onto the
// torn bytes.
func (j *Journal) load() error {
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	data, err := io.ReadAll(j.f)
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	var tail int
	j.seen, j.torn, tail = parse(data)
	if tail < len(data) {
		if err := j.f.Truncate(int64(tail)); err != nil {
			return fmt.Errorf("ckpt: truncate torn tail: %w", err)
		}
	}
	return nil
}

// parse reads journal lines. Later records for a key win, so a re-evaluated
// point supersedes its earlier journal entry; blank lines are skipped; a
// malformed line or an unterminated last line (a crash mid-append) counts as
// torn. tail is the length of the newline-terminated prefix.
func parse(data []byte) (seen map[string]json.RawMessage, torn, tail int) {
	seen = make(map[string]json.RawMessage)
	for tail < len(data) {
		nl := bytes.IndexByte(data[tail:], '\n')
		if nl < 0 {
			torn++
			break
		}
		line := data[tail : tail+nl]
		tail += nl + 1
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil || rec.Key == "" {
			torn++
			continue
		}
		seen[rec.Key] = rec.Value
	}
	return seen, torn, tail
}

// Lookup returns the journaled value for a key, if any. Nil-safe.
func (j *Journal) Lookup(key string) (json.RawMessage, bool) {
	if j == nil {
		return nil, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	v, ok := j.seen[key]
	return v, ok
}

// Append journals one completed point: the record is marshaled whole and
// written atomically (one Write on an O_APPEND descriptor), then fsynced
// when the journal was opened in fsync mode. Nil-safe no-op.
func (j *Journal) Append(key string, v any) error {
	if j == nil {
		return nil
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("ckpt: marshal %q: %w", key, err)
	}
	line, err := json.Marshal(record{Key: key, Value: raw})
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("ckpt: journal %s is closed", j.path)
	}
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("ckpt: append %q: %w", key, err)
	}
	if j.fsync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("ckpt: sync %q: %w", key, err)
		}
	}
	j.seen[key] = raw
	j.appended++
	return nil
}

// Len returns the number of distinct keys known to the journal (loaded plus
// appended). Nil-safe.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.seen)
}

// Keys returns the journal's distinct keys in sorted order (loaded plus
// appended) — the replay surface of journal-backed state machines like the
// fleet coordinator, which rebuilds its study table from the records on
// restart. Nil-safe.
func (j *Journal) Keys() []string {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	keys := make([]string, 0, len(j.seen))
	for k := range j.seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Appended returns how many records this process wrote. Nil-safe.
func (j *Journal) Appended() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appended
}

// Torn returns how many malformed lines the loader skipped. Nil-safe.
func (j *Journal) Torn() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.torn
}

// Load reads the records of a journal file without opening it for writing
// and without repairing its torn tail — the read-only side of MergeFiles.
// Later records for a key win, matching the resume loader.
func Load(path string) (map[string]json.RawMessage, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("ckpt: %w", err)
	}
	seen, torn, _ := parse(data)
	return seen, torn, nil
}

// MergeStats reports what MergeFiles combined.
type MergeStats struct {
	// Files is the number of input journals read.
	Files int
	// Records is the number of merged point records written.
	Records int
	// Meta counts stripped MetaPrefix records.
	Meta int
	// Torn counts malformed lines skipped across all inputs.
	Torn int
}

// MergeFiles folds any number of checkpoint journals into one canonical
// stream on w: point records sorted by key, one line per key, in exactly the
// format Append writes — so merging the shard journals of an N-worker sweep
// and merging a single-process journal of the same study yield byte-identical
// output, which is the distributed-sweep determinism proof.
//
// MetaPrefix records (shard ranges, study signatures) are stripped, except
// that every input carrying a "meta|study" record must agree on it — two
// shards of different studies refuse to merge. Duplicate point keys across
// shards must carry byte-identical values (the evaluation is deterministic;
// a divergence means a corrupt or foreign journal) or the merge fails.
func MergeFiles(w io.Writer, paths ...string) (MergeStats, error) {
	var st MergeStats
	merged := make(map[string]json.RawMessage)
	origin := make(map[string]string)
	var study string
	var studyFrom string
	for _, path := range paths {
		seen, torn, err := Load(path)
		if err != nil {
			return st, err
		}
		st.Files++
		st.Torn += torn
		if raw, ok := seen[MetaPrefix+"study"]; ok {
			if study == "" {
				study, studyFrom = string(raw), path
			} else if study != string(raw) {
				return st, fmt.Errorf("ckpt: merge: %s and %s journal different studies (%s vs %s)",
					studyFrom, path, study, raw)
			}
		}
		for key, raw := range seen {
			if strings.HasPrefix(key, MetaPrefix) {
				st.Meta++
				continue
			}
			if prev, ok := merged[key]; ok {
				if !bytes.Equal(prev, raw) {
					return st, fmt.Errorf("ckpt: merge: %s and %s disagree on %q — corrupt or foreign journal",
						origin[key], path, key)
				}
				continue
			}
			merged[key] = raw
			origin[key] = path
		}
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		line, err := json.Marshal(record{Key: k, Value: merged[k]})
		if err != nil {
			return st, fmt.Errorf("ckpt: merge: %w", err)
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return st, fmt.Errorf("ckpt: merge: %w", err)
		}
		st.Records++
	}
	return st, nil
}

// Close flushes and closes the journal file. Nil-safe.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	return nil
}
