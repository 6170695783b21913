// Package lease shards a DSE sweep across worker processes with nothing but
// files on a shared directory — no coordinator, no network. The study's point
// range is cut into numbered shards; a worker claims a shard by exclusively
// creating its lease file, renews the lease by rewriting it while it works,
// and marks the shard done with a separate done marker. A worker that dies
// (SIGKILL, OOM, power) simply stops heartbeating: once its lease expires,
// any surviving worker takes the shard over and re-evaluates it, which is
// safe because point evaluation is deterministic and journal records are
// keyed — a duplicated point carries an identical value.
//
// The takeover path is the only race: several workers may observe the same
// expired lease, and its owner may still be heartbeating it. O_EXCL creation
// of a takeover token named by the stale lease's generation admits exactly
// one of them, and only the token holder replaces the lease (see takeover).
// The claim path has no race at all (a hard link, like O_EXCL, admits one
// winner), and the done path is monotonic (done markers are never removed).
//
// Leases bind to a study signature: a directory accidentally shared by two
// different sweeps refuses to cross-claim, the same guard ckpt.MergeFiles
// applies to journals.
package lease

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"time"
)

// ErrAllDone reports that every shard of the study is finished — the worker
// loop's successful termination condition.
var ErrAllDone = errors.New("lease: all shards done")

// ErrContended reports that no shard could be claimed right now but
// unfinished shards remain, all currently covered by live leases.
var ErrContended = errors.New("lease: all remaining shards are leased")

// lease is the wire format of a lease file.
type lease struct {
	Study    string `json:"study"`
	Shard    int    `json:"shard"`
	Owner    string `json:"owner"`
	Nonce    int64  `json:"nonce"`
	Deadline int64  `json:"deadlineUnixNano"`
}

// Options tunes a Manager.
type Options struct {
	// TTL is how long a heartbeat keeps a lease alive. Longer TTLs tolerate
	// slower points; shorter ones reclaim dead workers' shards faster.
	// <= 0 uses DefaultTTL.
	TTL time.Duration
	// Retries bounds how many claim sweeps TryClaim makes before giving up
	// with ErrContended. <= 0 uses DefaultRetries.
	Retries int
	// Backoff is the delay between claim sweeps, doubling per retry.
	// <= 0 uses DefaultBackoff.
	Backoff time.Duration
	// Now overrides the wall clock; nil uses time.Now. The hook exists so
	// tests can inject skewed clocks — lease expiry compares a deadline
	// written by the claimant's clock against the heir's clock, and the
	// takeover protocol must stay exactly-one-winner under that skew.
	Now func() time.Time
}

// Defaults for Options.
const (
	DefaultTTL     = 30 * time.Second
	DefaultRetries = 3
	DefaultBackoff = 50 * time.Millisecond
)

// Manager claims, renews and completes the shard leases of one worker on one
// study. It is not safe for concurrent use; one worker drives one Manager.
type Manager struct {
	dir   string
	study string
	owner string
	opts  Options
	rng   *rand.Rand

	// nonce identifies this Manager's live lease on the claimed shard.
	nonce int64
	shard int
	// takeovers counts expired or torn leases this Manager took over —
	// shards reclaimed from dead peers rather than freshly claimed.
	takeovers int
}

// New builds a Manager over a shared lease directory. study is the study
// signature every worker of the sweep must agree on; owner is a diagnostic
// worker identity (hostname, pid, shard CLI flag — anything stable enough to
// debug with).
func New(dir, study, owner string, opts Options) (*Manager, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lease: %w", err)
	}
	if opts.TTL <= 0 {
		opts.TTL = DefaultTTL
	}
	if opts.Retries <= 0 {
		opts.Retries = DefaultRetries
	}
	if opts.Backoff <= 0 {
		opts.Backoff = DefaultBackoff
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	seed := time.Now().UnixNano() ^ int64(os.Getpid())<<32
	return &Manager{
		dir: dir, study: study, owner: owner, opts: opts,
		rng: rand.New(rand.NewSource(seed)), shard: -1,
	}, nil
}

// now reads the Manager's clock (the real one unless Options.Now injected a
// skewed test clock).
func (m *Manager) now() time.Time { return m.opts.Now() }

// Jitter spreads d by ±10% using the Manager's private randomness. Heartbeat
// periods and takeover retry delays go through it so a fleet of hot-standby
// workers watching the same expired lease spreads out instead of stampeding
// the takeover token at the same instant.
func (m *Manager) Jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return time.Duration(float64(d) * (0.9 + 0.2*m.rng.Float64()))
}

func (m *Manager) leasePath(shard int) string {
	return filepath.Join(m.dir, fmt.Sprintf("shard-%04d.lease", shard))
}

func (m *Manager) donePath(shard int) string { return donePathIn(m.dir, shard) }

func donePathIn(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d.done", shard))
}

// Done reports whether a shard has been completed (by anyone).
func (m *Manager) Done(shard int) bool {
	_, err := os.Stat(m.donePath(shard))
	return err == nil
}

// read loads a lease file: its raw bytes (nil when missing or unreadable)
// and whether they decode — an undecodable lease is a torn write from a
// dying worker, and it never protects the shard.
func (m *Manager) read(path string) (l lease, raw []byte, ok bool) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return lease{}, nil, false
	}
	return l, raw, json.Unmarshal(raw, &l) == nil
}

// place atomically puts v's JSON at path, so no reader ever sees a
// half-written file: it is staged in a temp file, then hard-linked into
// place when exclusive (failing with os.ErrExist if the path exists — one
// winner, like O_EXCL) or renamed over it otherwise.
func (m *Manager) place(path string, v any, exclusive bool) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("lease: %w", err)
	}
	tmp, err := os.CreateTemp(m.dir, ".lease-*")
	if err != nil {
		return fmt.Errorf("lease: %w", err)
	}
	defer os.Remove(tmp.Name())
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil && exclusive {
		err = os.Link(tmp.Name(), path)
	} else if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return fmt.Errorf("lease: %w", err)
	}
	return nil
}

// install places a lease and reads it back, reporting whether our nonce is
// the one on disk; an exclusive install loses to an existing lease.
func (m *Manager) install(path string, l lease, exclusive bool) (bool, error) {
	if err := m.place(path, l, exclusive); err != nil {
		if errors.Is(err, os.ErrExist) {
			return false, nil
		}
		return false, err
	}
	back, _, ok := m.read(path)
	return ok && back.Nonce == l.Nonce && back.Owner == l.Owner, nil
}

// fresh builds a new lease for shard with a new nonce.
func (m *Manager) fresh(shard int) lease {
	m.nonce = m.rng.Int63()
	return lease{
		Study: m.study, Shard: shard, Owner: m.owner, Nonce: m.nonce,
		Deadline: m.now().Add(m.opts.TTL).UnixNano(),
	}
}

// tryClaimOne attempts to acquire one specific shard: create a fresh lease,
// or take over an expired (or torn) one through its takeover token.
func (m *Manager) tryClaimOne(shard int) (bool, error) {
	if m.Done(shard) {
		return false, nil
	}
	path := m.leasePath(shard)
	l := m.fresh(shard)
	if ok, err := m.install(path, l, true); err != nil || ok {
		if ok && m.Done(shard) {
			// The owner completed between our done check and the install:
			// Complete writes the marker before it removes the lease, so the
			// missing lease we claimed was a finished shard's. Drop our lease.
			os.Remove(path)
			return false, nil
		}
		if ok {
			m.shard = shard
		}
		return ok, err
	}
	cur, stale, ok := m.read(path)
	if stale == nil {
		return false, nil // released meanwhile: the next sweep claims it fresh
	}
	// A torn lease's generation is named by its checksum.
	gen := fmt.Sprintf("torn%08x", crc32.ChecksumIEEE(stale))
	if ok {
		if cur.Study != m.study {
			return false, fmt.Errorf("lease: shard %d is leased for study %q, not %q — directory shared across sweeps",
				shard, cur.Study, m.study)
		}
		if m.now().UnixNano() < cur.Deadline {
			return false, nil // live lease: someone else is on it
		}
		gen = generation(cur.Nonce)
	}
	won, err := m.takeover(path, gen, stale, l)
	if err != nil || !won {
		return false, err
	}
	if m.Done(shard) {
		// The old owner finished between our expiry check and the takeover;
		// the done marker is authoritative, our lease is moot.
		return false, nil
	}
	m.shard = shard
	m.takeovers++
	return true, nil
}

// generation names a decodable lease's takeover tokens by its nonce, so an
// heir and the lease's own heartbeat contend for the same token.
func generation(nonce int64) string { return fmt.Sprintf("%x", nonce) }

// takeover replaces one stale lease generation with l, reporting whether
// this contender did. Only the contender that O_EXCL-creates the
// generation's takeover token installs, so at most one contender wins per
// generation. A token older than the TTL was abandoned by a holder that died
// before installing; contenders then race for the generation's next token,
// so a dead holder wedges the shard for at most one TTL. The generation's own
// owner renews through the same token (see Heartbeat). The holder installs
// only while the lease file still holds the exact stale bytes it judged —
// a contender that read them long ago finds the lease already replaced.
func (m *Manager) takeover(path, gen string, stale []byte, l lease) (bool, error) {
	for k := 0; ; k++ {
		token := fmt.Sprintf("%s.take-%s-%d", path, gen, k)
		f, err := os.OpenFile(token, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			f.Close()
			break
		}
		if !errors.Is(err, os.ErrExist) {
			return false, fmt.Errorf("lease: %w", err)
		}
		if st, err := os.Stat(token); err != nil || m.now().Sub(st.ModTime()) < m.opts.TTL {
			return false, nil // a live holder is installing, or a winner already cleared its tokens
		}
	}
	// Holding the generation's newest token, clear all of its tokens on the
	// way out, abandoned ones included: once the lease is replaced, a late
	// contender that recreates one finds the stale bytes gone.
	defer func() {
		tokens, _ := filepath.Glob(fmt.Sprintf("%s.take-%s-*", path, gen))
		for _, t := range tokens {
			os.Remove(t)
		}
	}()
	if cur, err := os.ReadFile(path); err != nil || !bytes.Equal(cur, stale) {
		return false, nil
	}
	return m.install(path, l, false)
}

// TryClaim sweeps the study's shards for one this worker can own, with
// bounded retry and doubling backoff when every unfinished shard is under a
// live lease (the holder may die — retrying is how its shard gets picked up).
// Returns the claimed shard index, ErrAllDone when every shard has a done
// marker, or ErrContended after the retry budget.
func (m *Manager) TryClaim(ctx context.Context, shards int) (int, error) {
	backoff := m.opts.Backoff
	for attempt := 0; ; attempt++ {
		done := 0
		for s := 0; s < shards; s++ {
			if m.Done(s) {
				done++
				continue
			}
			ok, err := m.tryClaimOne(s)
			if err != nil {
				return -1, err
			}
			if ok {
				return s, nil
			}
		}
		if done == shards {
			return -1, ErrAllDone
		}
		if attempt >= m.opts.Retries {
			return -1, ErrContended
		}
		t := time.NewTimer(m.Jitter(backoff))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return -1, ctx.Err()
		}
		backoff *= 2
	}
}

// Heartbeat renews the held lease, extending its deadline by one TTL. It
// fails if this worker's nonce no longer owns the lease file — the lease
// expired and another worker took the shard over; the caller must abandon
// the shard (its work is not wasted: keyed, deterministic journal records
// merge cleanly with the new owner's). The renewal contends for the same
// takeover token an heir of this generation would, so an heir that installs
// between the read and the renewal is never overwritten.
func (m *Manager) Heartbeat() error {
	if m.shard < 0 {
		return errors.New("lease: no shard held")
	}
	path := m.leasePath(m.shard)
	cur, raw, ok := m.read(path)
	if !ok || cur.Nonce != m.nonce {
		return fmt.Errorf("lease: shard %d was taken over (lease lost)", m.shard)
	}
	cur.Deadline = m.now().Add(m.opts.TTL).UnixNano()
	won, err := m.takeover(path, generation(cur.Nonce), raw, cur)
	if err != nil {
		return err
	}
	if !won {
		return fmt.Errorf("lease: shard %d was taken over during heartbeat", m.shard)
	}
	return nil
}

// Complete writes the held shard's done marker and releases the lease. Done
// markers are never removed, so completion is monotonic even if a stale
// former owner later scribbles on the lease file.
func (m *Manager) Complete() error {
	if m.shard < 0 {
		return errors.New("lease: no shard held")
	}
	done := struct {
		Study string `json:"study"`
		Shard int    `json:"shard"`
		Owner string `json:"owner"`
	}{m.study, m.shard, m.owner}
	if err := m.place(m.donePath(m.shard), done, false); err != nil {
		return err
	}
	os.Remove(m.leasePath(m.shard))
	m.shard = -1
	m.nonce = 0
	return nil
}

// Release abandons the held shard without completing it: the lease file is
// removed if we still own it, so another worker can claim the shard
// immediately instead of waiting out the TTL.
func (m *Manager) Release() {
	if m.shard < 0 {
		return
	}
	path := m.leasePath(m.shard)
	if cur, _, ok := m.read(path); ok && cur.Nonce == m.nonce {
		os.Remove(path)
	}
	m.shard = -1
	m.nonce = 0
}

// Takeovers returns how many shards this Manager acquired by taking over an
// expired or torn lease — the reclaimed-from-dead-peers count surfaced by
// fleet observability.
func (m *Manager) Takeovers() int { return m.takeovers }

// DoneCount reports how many of the study's shards carry done markers in a
// lease directory — the coordinator's progress view, needing no Manager and
// no claims. A missing directory counts zero.
func DoneCount(dir string, shards int) int {
	n := 0
	for s := 0; s < shards; s++ {
		if _, err := os.Stat(donePathIn(dir, s)); err == nil {
			n++
		}
	}
	return n
}

// TTL returns the effective lease time-to-live (callers derive their
// heartbeat period from it).
func (m *Manager) TTL() time.Duration { return m.opts.TTL }
