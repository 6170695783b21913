// Package store is the persistent, shareable half of the evaluation cache: a
// content-addressed, crash-safe on-disk key/value store the engine layers
// under its in-memory memo cache, so layer-search results survive the process
// and can be shared between the worker processes of a sharded sweep.
//
// The durability discipline is segment-per-writer: every process appends to
// its own exclusively-created segment file, each record written with a single
// Write call on an O_APPEND descriptor, so concurrent workers sharing one
// cache directory never interleave partial records. Open scans every segment
// in the directory; a crashed writer leaves at most one torn tail per
// segment, which the decoder detects and (for an exclusively-owned store)
// truncates away.
//
// Every record is framed with a magic marker, bounded lengths and a CRC32C
// over the lengths and payload, and every segment starts with a versioned
// header. A record that fails any of these checks is never served: it is
// counted, logged to the quarantine journal, and the decoder resynchronizes
// at the next record marker — a poisoned cache degrades to recompute, never
// to wrong answers. A segment with an unknown magic or version is ignored
// whole, which is also the invalidation rule: bumping FormatVersion orphans
// every old segment at once.
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"nnbaton/internal/obs"
)

// Format constants. A record is
//
//	recMagic(4) keyLen(4) valLen(4) crc(4) key val
//
// with all integers little-endian and crc = CRC32C(keyLen ‖ valLen ‖ key ‖
// val). A segment is segMagic(8) formatVersion(4) flags(4) followed by
// records.
const (
	segMagicLen   = 8
	segHeaderLen  = segMagicLen + 8
	recHeaderLen  = 16
	FormatVersion = 1

	// MaxKeyLen and MaxValLen bound the framing lengths; anything larger is
	// corruption by definition, which keeps a flipped length byte from
	// turning into a multi-gigabyte allocation.
	MaxKeyLen = 1 << 16
	MaxValLen = 1 << 28
)

var (
	segMagic = [segMagicLen]byte{'N', 'N', 'B', 'S', 'T', 'O', 'R', '1'}
	recMagic = [4]byte{0xF5, 'R', 'E', 'C'}
	crcTable = crc32.MakeTable(crc32.Castagnoli)
)

// Options tunes Open.
type Options struct {
	// Repair physically truncates torn segment tails on open. Safe only when
	// no other process may be appending to the directory's segments (an
	// exclusively-owned cache); a shared store should leave it off — torn
	// tails are skipped either way.
	Repair bool
	// Fsync syncs the segment file after every Put. Off, durability is the
	// OS page cache (a killed process loses nothing; an OS crash loses at
	// most the unsynced suffix, which the framing then detects).
	Fsync bool
	// Registry receives the store's counters (records loaded, corrupt,
	// torn, quarantined) under store.*; nil disables registration.
	Registry *obs.Registry
}

// Stats is a snapshot of what Open found and what the store did since.
type Stats struct {
	// Segments is the number of compatible segment files loaded.
	Segments int
	// Incompatible counts segment files ignored whole (bad magic/version).
	Incompatible int
	// Records is the number of live keys.
	Records int
	// LoadedBytes is the total size of the scanned segments.
	LoadedBytes int64
	// Corrupt counts records dropped for framing/CRC failures (load + Get).
	Corrupt int
	// Torn counts segment tails cut short by a crashed writer.
	Torn int
	// Quarantined counts keys poisoned by Quarantine.
	Quarantined int
	// Puts counts records appended by this process.
	Puts int
}

// Store is the on-disk cache: an in-memory index over the directory's
// segments plus this process's own append segment. All methods are safe for
// concurrent use; a nil *Store misses on Get and discards Put (the disabled
// path).
type Store struct {
	dir  string
	opts Options

	mu       sync.Mutex
	index    map[string][]byte
	poisoned map[string]bool
	seg      *os.File // lazily created own segment
	stats    Stats

	corrupt, torn, quarantined, puts *obs.Counter
	records                          *obs.Gauge
}

// DecodeStats reports what a segment scan found.
type DecodeStats struct {
	// Records counts frames that passed every check.
	Records int
	// Corrupt counts skipped byte ranges that failed a check mid-file.
	Corrupt int
	// TornTail is set when the segment ends in a partial record; TornAt is
	// then the offset the segment should be truncated to.
	TornTail bool
	TornAt   int64
}

// ErrIncompatible marks a segment whose header belongs to a different format
// version (or is not a segment at all); callers skip such files whole.
var ErrIncompatible = errors.New("store: incompatible segment")

// DecodeSegment scans one segment image, calling emit for every valid
// record. It never panics on arbitrary input and only ever returns
// ErrIncompatible (wrapped) — every other defect is reported in DecodeStats:
// a torn tail stops the scan, a corrupt frame is skipped and the scan
// resynchronizes at the next record marker. The emitted key and value slices
// alias data.
func DecodeSegment(data []byte, emit func(key string, val []byte)) (DecodeStats, error) {
	var st DecodeStats
	if len(data) < segHeaderLen {
		return st, fmt.Errorf("%w: %d-byte file is shorter than the header", ErrIncompatible, len(data))
	}
	if [segMagicLen]byte(data[:segMagicLen]) != segMagic {
		return st, fmt.Errorf("%w: bad magic", ErrIncompatible)
	}
	if v := binary.LittleEndian.Uint32(data[segMagicLen:]); v != FormatVersion {
		return st, fmt.Errorf("%w: format version %d (want %d)", ErrIncompatible, v, FormatVersion)
	}
	off := int64(segHeaderLen)
	n := int64(len(data))
	for off < n {
		rec := data[off:]
		if int64(len(rec)) < recHeaderLen || [4]byte(rec[:4]) != recMagic {
			off = skipToNextMarker(data, off, &st)
			continue
		}
		keyLen := int64(binary.LittleEndian.Uint32(rec[4:]))
		valLen := int64(binary.LittleEndian.Uint32(rec[8:]))
		crc := binary.LittleEndian.Uint32(rec[12:])
		if keyLen > MaxKeyLen || valLen > MaxValLen {
			off = skipToNextMarker(data, off, &st)
			continue
		}
		end := off + recHeaderLen + keyLen + valLen
		if end > n {
			// Extends past EOF: a torn tail if nothing follows, a corrupt
			// length if another record marker does.
			off = skipToNextMarker(data, off, &st)
			continue
		}
		key := rec[recHeaderLen : recHeaderLen+keyLen]
		val := rec[recHeaderLen+keyLen : recHeaderLen+keyLen+valLen]
		h := crc32.New(crcTable)
		h.Write(rec[4:12])
		h.Write(key)
		h.Write(val)
		if h.Sum32() != crc {
			off = skipToNextMarker(data, off, &st)
			continue
		}
		if emit != nil {
			emit(string(key), val)
		}
		st.Records++
		off = end
	}
	return st, nil
}

// skipToNextMarker advances past a defective frame starting at off: if a
// later record marker exists the range up to it is counted corrupt and the
// scan resumes there; otherwise the remainder is a torn tail and the scan
// ends. A marker right at off (header or CRC defect) is skipped past so the
// scan cannot loop.
func skipToNextMarker(data []byte, off int64, st *DecodeStats) int64 {
	next := indexMarker(data, off+1)
	if next < 0 {
		// Nothing recognizable follows: the remainder is a torn tail from a
		// crashed (or still-running) writer.
		st.TornTail = true
		st.TornAt = off
		return int64(len(data))
	}
	st.Corrupt++
	return next
}

// indexMarker returns the offset of the next record marker at or after from,
// or -1.
func indexMarker(data []byte, from int64) int64 {
	if from >= int64(len(data)) {
		return -1
	}
	i := bytes.Index(data[from:], recMagic[:])
	if i < 0 {
		return -1
	}
	return from + int64(i)
}

// EncodeRecord appends the framed form of (key, val) to buf and returns it —
// the exact bytes Put writes. Exported for tests and the fuzz corpus.
func EncodeRecord(buf []byte, key string, val []byte) ([]byte, error) {
	if len(key) == 0 || len(key) > MaxKeyLen {
		return buf, fmt.Errorf("store: key length %d out of range [1, %d]", len(key), MaxKeyLen)
	}
	if len(val) > MaxValLen {
		return buf, fmt.Errorf("store: value length %d exceeds %d", len(val), MaxValLen)
	}
	var hdr [recHeaderLen]byte
	copy(hdr[:4], recMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(key)))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(val)))
	h := crc32.New(crcTable)
	h.Write(hdr[4:12])
	h.Write([]byte(key))
	h.Write(val)
	binary.LittleEndian.PutUint32(hdr[12:], h.Sum32())
	buf = append(buf, hdr[:]...)
	buf = append(buf, key...)
	buf = append(buf, val...)
	return buf, nil
}

// SegmentHeader returns the 16-byte header every segment file starts with.
func SegmentHeader() []byte {
	hdr := make([]byte, segHeaderLen)
	copy(hdr, segMagic[:])
	binary.LittleEndian.PutUint32(hdr[segMagicLen:], FormatVersion)
	return hdr
}

// EnsureWritableDir creates dir (and parents) if needed and proves it is
// writable by creating and removing a probe file — the CLIs' line-one
// -cache-dir validation, so an unwritable path fails at startup instead of
// minutes into a sweep.
func EnsureWritableDir(dir string) error {
	if dir == "" {
		return errors.New("store: empty directory path")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	probe, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return fmt.Errorf("store: directory %s is not writable: %w", dir, err)
	}
	name := probe.Name()
	probe.Close()
	if err := os.Remove(name); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Open loads every compatible segment under dir into an in-memory index.
// Later segments (by name order) win duplicate keys, which is harmless in
// practice: the cache is content-addressed and its producers deterministic,
// so duplicates carry identical values. The directory is created if missing.
func Open(dir string, opts Options) (*Store, error) {
	if err := EnsureWritableDir(dir); err != nil {
		return nil, err
	}
	s := &Store{
		dir:      dir,
		opts:     opts,
		index:    make(map[string][]byte),
		poisoned: make(map[string]bool),
	}
	if reg := opts.Registry; reg != nil {
		s.corrupt = reg.Counter("store.corrupt_records")
		s.torn = reg.Counter("store.torn_tails")
		s.quarantined = reg.Counter("store.quarantined_keys")
		s.puts = reg.Counter("store.puts")
		s.records = reg.Gauge("store.records")
	} else {
		s.corrupt, s.torn = &obs.Counter{}, &obs.Counter{}
		s.quarantined, s.puts = &obs.Counter{}, &obs.Counter{}
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := s.loadSegment(name); err != nil {
			return nil, err
		}
	}
	s.stats.Records = len(s.index)
	s.records.Set(int64(len(s.index)))
	return s, nil
}

// loadSegment scans one segment file into the index, repairing a torn tail
// in place when the store owns the directory exclusively.
func (s *Store) loadSegment(name string) error {
	data, err := os.ReadFile(name)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.stats.LoadedBytes += int64(len(data))
	st, err := DecodeSegment(data, func(key string, val []byte) {
		// Copy out of the file image: the index outlives this scan.
		s.index[key] = append([]byte(nil), val...)
	})
	if err != nil {
		s.stats.Incompatible++
		return nil // a foreign or future-format file is not ours to judge
	}
	s.stats.Segments++
	s.stats.Corrupt += st.Corrupt
	s.corrupt.Add(int64(st.Corrupt))
	if st.Corrupt > 0 {
		s.quarantineNote(name, fmt.Sprintf("%d corrupt record(s) skipped on load", st.Corrupt))
	}
	if st.TornTail {
		s.stats.Torn++
		s.torn.Add(1)
		if s.opts.Repair {
			if err := os.Truncate(name, st.TornAt); err != nil {
				return fmt.Errorf("store: truncate torn tail of %s: %w", name, err)
			}
		}
	}
	return nil
}

// Get returns the stored value for key. Quarantined keys always miss.
// Nil-safe.
func (s *Store) Get(key string) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.poisoned[key] {
		return nil, false
	}
	v, ok := s.index[key]
	return v, ok
}

// Put appends one record to this process's segment (created exclusively on
// first use) and indexes it, clearing any quarantine on the key — a
// recomputed value supersedes a poisoned one. Nil-safe no-op.
func (s *Store) Put(key string, val []byte) error {
	if s == nil {
		return nil
	}
	line, err := EncodeRecord(nil, key, val)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seg == nil {
		if err := s.createSegment(); err != nil {
			return err
		}
	}
	if _, err := s.seg.Write(line); err != nil {
		return fmt.Errorf("store: append %q: %w", key, err)
	}
	if s.opts.Fsync {
		if err := s.seg.Sync(); err != nil {
			return fmt.Errorf("store: sync: %w", err)
		}
	}
	s.index[key] = append([]byte(nil), val...)
	delete(s.poisoned, key)
	s.stats.Puts++
	s.puts.Add(1)
	s.records.Set(int64(len(s.index)))
	return nil
}

// createSegment exclusively creates this process's append segment and writes
// its header. Called with mu held.
func (s *Store) createSegment() error {
	for attempt := 0; ; attempt++ {
		name := filepath.Join(s.dir, fmt.Sprintf("w%d-%d.seg", os.Getpid(), time.Now().UnixNano()))
		f, err := os.OpenFile(name, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
		if errors.Is(err, os.ErrExist) && attempt < 8 {
			continue
		}
		if err != nil {
			return fmt.Errorf("store: create segment: %w", err)
		}
		if _, err := f.Write(SegmentHeader()); err != nil {
			f.Close()
			return fmt.Errorf("store: segment header: %w", err)
		}
		s.seg = f
		return nil
	}
}

// Quarantine poisons a key whose stored value decoded but failed a
// higher-level check (the engine's payload schema): the key misses until a
// recomputed Put replaces it, and the defect is logged to the quarantine
// journal. Nil-safe.
func (s *Store) Quarantine(key string, reason error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.poisoned[key] = true
	s.stats.Quarantined++
	s.mu.Unlock()
	s.quarantined.Add(1)
	s.quarantineNote(key, fmt.Sprint(reason))
}

// quarantineNote appends one JSONL line to the quarantine journal. Failures
// are swallowed: the note is diagnostic, the poisoning itself is in memory.
func (s *Store) quarantineNote(subject, detail string) {
	f, err := os.OpenFile(filepath.Join(s.dir, "quarantine.log"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return
	}
	defer f.Close()
	line, err := json.Marshal(struct {
		Subject string `json:"subject"`
		Detail  string `json:"detail"`
		Time    string `json:"time"`
	}{subject, detail, time.Now().UTC().Format(time.RFC3339)})
	if err != nil {
		return
	}
	f.Write(append(line, '\n'))
}

// Len returns the number of live keys. Nil-safe.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Stats snapshots the store's counters. Nil-safe.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Records = len(s.index)
	return st
}

// String renders the stats in one line.
func (st Stats) String() string {
	return fmt.Sprintf("store: %d records in %d segments (%d B), %d corrupt, %d torn, %d quarantined, %d puts",
		st.Records, st.Segments, st.LoadedBytes, st.Corrupt, st.Torn, st.Quarantined, st.Puts)
}

// Close syncs and closes this process's segment. The index stays readable.
// Nil-safe.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seg == nil {
		return nil
	}
	err := s.seg.Sync()
	if cerr := s.seg.Close(); err == nil {
		err = cerr
	}
	s.seg = nil
	if err != nil {
		return fmt.Errorf("store: close: %w", err)
	}
	return nil
}
