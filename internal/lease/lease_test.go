package lease

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var bg = context.Background()

func mgr(t *testing.T, dir, owner string, opts Options) *Manager {
	t.Helper()
	m, err := New(dir, "study-sig", owner, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestClaimHeartbeatComplete(t *testing.T) {
	dir := t.TempDir()
	m := mgr(t, dir, "w0", Options{TTL: time.Minute})
	shard, err := m.TryClaim(bg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if shard != 0 {
		t.Fatalf("claimed shard %d, want 0", shard)
	}
	if err := m.Heartbeat(); err != nil {
		t.Fatal(err)
	}
	if err := m.Complete(); err != nil {
		t.Fatal(err)
	}
	if !m.Done(0) {
		t.Error("done marker missing")
	}
	if _, err := os.Stat(filepath.Join(dir, "shard-0000.lease")); !errors.Is(err, os.ErrNotExist) {
		t.Error("lease file not released on completion")
	}
	// The next claim skips the done shard.
	shard, err = m.TryClaim(bg, 2)
	if err != nil || shard != 1 {
		t.Fatalf("second claim = %d, %v, want 1", shard, err)
	}
	if err := m.Complete(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.TryClaim(bg, 2); !errors.Is(err, ErrAllDone) {
		t.Fatalf("all-done claim = %v, want ErrAllDone", err)
	}
}

func TestTwoWorkersSplitShards(t *testing.T) {
	dir := t.TempDir()
	a := mgr(t, dir, "a", Options{TTL: time.Minute})
	b := mgr(t, dir, "b", Options{TTL: time.Minute})
	sa, err := a.TryClaim(bg, 2)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.TryClaim(bg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sa == sb {
		t.Fatalf("both workers claimed shard %d", sa)
	}
	// With both shards leased and unfinished, a third worker is contended.
	c := mgr(t, dir, "c", Options{TTL: time.Minute, Retries: 1, Backoff: time.Millisecond})
	if _, err := c.TryClaim(bg, 2); !errors.Is(err, ErrContended) {
		t.Fatalf("third worker claim = %v, want ErrContended", err)
	}
}

// TestExpiredLeaseReclaimed is the worker-death scenario: the owner stops
// heartbeating (dies), its lease expires, and a second worker takes the
// shard over. The dead worker's Heartbeat then fails, so a zombie cannot
// believe it still owns the shard.
func TestExpiredLeaseReclaimed(t *testing.T) {
	dir := t.TempDir()
	dead := mgr(t, dir, "dead", Options{TTL: 10 * time.Millisecond})
	if _, err := dead.TryClaim(bg, 1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	heir := mgr(t, dir, "heir", Options{TTL: time.Minute})
	shard, err := heir.TryClaim(bg, 1)
	if err != nil || shard != 0 {
		t.Fatalf("takeover claim = %d, %v", shard, err)
	}
	if err := dead.Heartbeat(); err == nil {
		t.Error("zombie heartbeat succeeded after takeover")
	}
	if err := heir.Heartbeat(); err != nil {
		t.Errorf("new owner heartbeat: %v", err)
	}
	if err := heir.Complete(); err != nil {
		t.Fatal(err)
	}
}

// TestTornLeaseReclaimed treats an undecodable lease file (a worker died
// mid-write) as expired: it never protects the shard.
func TestTornLeaseReclaimed(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "shard-0000.lease"), []byte(`{"study":"study-si`), 0o644); err != nil {
		t.Fatal(err)
	}
	m := mgr(t, dir, "w", Options{TTL: time.Minute})
	if shard, err := m.TryClaim(bg, 1); err != nil || shard != 0 {
		t.Fatalf("torn-lease claim = %d, %v", shard, err)
	}
}

func TestForeignStudyRefused(t *testing.T) {
	dir := t.TempDir()
	other, err := New(dir, "other-study", "o", Options{TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.TryClaim(bg, 1); err != nil {
		t.Fatal(err)
	}
	m := mgr(t, dir, "w", Options{TTL: time.Minute, Retries: 1, Backoff: time.Millisecond})
	if _, err := m.TryClaim(bg, 1); err == nil || errors.Is(err, ErrContended) {
		t.Fatalf("cross-study claim = %v, want a study-mismatch error", err)
	}
}

func TestReleaseFreesShardImmediately(t *testing.T) {
	dir := t.TempDir()
	a := mgr(t, dir, "a", Options{TTL: time.Hour})
	if _, err := a.TryClaim(bg, 1); err != nil {
		t.Fatal(err)
	}
	a.Release()
	b := mgr(t, dir, "b", Options{TTL: time.Minute})
	if shard, err := b.TryClaim(bg, 1); err != nil || shard != 0 {
		t.Fatalf("claim after release = %d, %v", shard, err)
	}
}

// TestTakeoverRaceSingleWinner contends many managers for one expired lease;
// exactly one may win, decided by the rename + read-back nonce check.
func TestTakeoverRaceSingleWinner(t *testing.T) {
	dir := t.TempDir()
	stale := lease{Study: "study-sig", Shard: 0, Owner: "dead", Nonce: 1, Deadline: 1}
	data, _ := json.Marshal(stale)
	if err := os.WriteFile(filepath.Join(dir, "shard-0000.lease"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	const contenders = 8
	wins := make(chan int, contenders)
	start := make(chan struct{})
	done := make(chan struct{}, contenders)
	for i := 0; i < contenders; i++ {
		m := mgr(t, dir, "w", Options{TTL: time.Hour, Retries: 1, Backoff: time.Millisecond})
		go func() {
			<-start
			if shard, err := m.TryClaim(bg, 1); err == nil && shard == 0 {
				wins <- 1
			}
			done <- struct{}{}
		}()
	}
	close(start)
	for i := 0; i < contenders; i++ {
		<-done
	}
	close(wins)
	won := 0
	for range wins {
		won++
	}
	if won != 1 {
		t.Errorf("%d contenders won the takeover, want exactly 1", won)
	}
}

func TestCompletionBeatsTakeover(t *testing.T) {
	// The old owner completed between the expiry check and our takeover: the
	// done marker is authoritative and the takeover must not claim.
	dir := t.TempDir()
	dead := mgr(t, dir, "dead", Options{TTL: 5 * time.Millisecond})
	if _, err := dead.TryClaim(bg, 1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	// Keep the expired lease file on disk but mark the shard done, as a slow
	// Complete on the old owner would after a new worker read the lease.
	if err := dead.Complete(); err != nil {
		t.Fatal(err)
	}
	heir := mgr(t, dir, "heir", Options{TTL: time.Minute})
	if _, err := heir.TryClaim(bg, 1); !errors.Is(err, ErrAllDone) {
		t.Fatalf("claim of completed shard = %v, want ErrAllDone", err)
	}
}

func TestCompletionBeatsFreshClaim(t *testing.T) {
	// The owner completes — done marker written, lease removed — after a
	// second worker's done check but before its exclusive install: the free
	// lease path must not hand the finished shard out again. The second
	// worker's clock hook runs inside that window, so it completes the owner.
	dir := t.TempDir()
	owner := mgr(t, dir, "owner", Options{TTL: time.Minute})
	if _, err := owner.TryClaim(bg, 1); err != nil {
		t.Fatal(err)
	}
	completed := false
	late := mgr(t, dir, "late", Options{TTL: time.Minute, Now: func() time.Time {
		if !completed {
			completed = true
			if err := owner.Complete(); err != nil {
				t.Error(err)
			}
		}
		return time.Now()
	}})
	if shard, err := late.TryClaim(bg, 1); !errors.Is(err, ErrAllDone) {
		t.Fatalf("claim of a shard completed mid-claim = %d, %v, want ErrAllDone", shard, err)
	}
	if !completed {
		t.Fatal("the clock hook never ran; the test exercised nothing")
	}
	if _, err := os.Stat(filepath.Join(dir, "shard-0000.lease")); !errors.Is(err, os.ErrNotExist) {
		t.Error("the late claimant left a lease on a completed shard")
	}
}

func TestZombieHeartbeatLosesToHeir(t *testing.T) {
	// An heir takes an expired lease over after its zombie owner read the
	// lease for a heartbeat but before the renewal lands: the renewal must
	// not overwrite the heir's lease, and the zombie must learn it lost the
	// shard. The zombie's clock hook runs inside that window, so it runs
	// the heir's takeover; the heir's clock is past the zombie's deadline.
	dir := t.TempDir()
	heir := mgr(t, dir, "heir", Options{TTL: time.Minute, Retries: 1, Backoff: time.Millisecond,
		Now: func() time.Time { return time.Now().Add(2 * time.Minute) }})
	armed, fired := false, false
	zombie := mgr(t, dir, "zombie", Options{TTL: time.Minute, Now: func() time.Time {
		if armed && !fired {
			fired = true
			if shard, err := heir.TryClaim(bg, 1); err != nil || shard != 0 {
				t.Errorf("heir takeover mid-heartbeat = %d, %v, want shard 0", shard, err)
			}
		}
		return time.Now()
	}})
	if _, err := zombie.TryClaim(bg, 1); err != nil {
		t.Fatal(err)
	}
	armed = true
	if err := zombie.Heartbeat(); err == nil {
		t.Error("zombie heartbeat succeeded over the heir's lease")
	}
	if !fired {
		t.Fatal("the clock hook never ran; the test exercised nothing")
	}
	if err := heir.Heartbeat(); err != nil {
		t.Errorf("heir lost its lease to the zombie heartbeat: %v", err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "shard-0000.lease.take-*")); len(left) != 0 {
		t.Errorf("takeover tokens left behind: %v", left)
	}
}

func TestHeartbeatWithoutClaim(t *testing.T) {
	m := mgr(t, t.TempDir(), "w", Options{})
	if err := m.Heartbeat(); err == nil {
		t.Error("heartbeat without a held shard succeeded")
	}
	if err := m.Complete(); err == nil {
		t.Error("complete without a held shard succeeded")
	}
	m.Release() // must not panic
}

func TestClaimRespectsContext(t *testing.T) {
	dir := t.TempDir()
	a := mgr(t, dir, "a", Options{TTL: time.Hour})
	if _, err := a.TryClaim(bg, 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	cancel()
	b := mgr(t, dir, "b", Options{TTL: time.Minute, Retries: 5, Backoff: time.Hour})
	if _, err := b.TryClaim(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled claim = %v", err)
	}
}

// TestClockSkewHeirAhead injects skewed clocks through the Options.Now hook:
// the heir's clock runs ahead of the claimant's, so a lease the claimant
// believes is fresh looks expired to the heir. The takeover must still be
// safe — the heir wins through the takeover token, and the
// claimant's next heartbeat fails instead of silently renewing a lost lease.
func TestClockSkewHeirAhead(t *testing.T) {
	dir := t.TempDir()
	base := time.Now()
	claimant := mgr(t, dir, "claimant", Options{TTL: time.Minute,
		Now: func() time.Time { return base }})
	if _, err := claimant.TryClaim(bg, 1); err != nil {
		t.Fatal(err)
	}
	// The heir's clock is two minutes ahead: past the claimant's deadline.
	heir := mgr(t, dir, "heir", Options{TTL: time.Minute,
		Now: func() time.Time { return base.Add(2 * time.Minute) }})
	shard, err := heir.TryClaim(bg, 1)
	if err != nil || shard != 0 {
		t.Fatalf("skewed takeover = %d, %v, want shard 0", shard, err)
	}
	if err := claimant.Heartbeat(); err == nil {
		t.Error("claimant heartbeat succeeded after a skewed-clock takeover")
	}
	if err := heir.Heartbeat(); err != nil {
		t.Errorf("heir heartbeat: %v", err)
	}
}

// TestClockSkewClaimantAhead is the other direction: the claimant's clock is
// far ahead, so its lease deadline lands deep in the heir's future. The heir
// must treat the lease as fresh (no takeover, ErrContended) and the claimant
// keeps renewing undisturbed — skew never manufactures a double owner.
func TestClockSkewClaimantAhead(t *testing.T) {
	dir := t.TempDir()
	base := time.Now()
	claimant := mgr(t, dir, "claimant", Options{TTL: time.Minute,
		Now: func() time.Time { return base.Add(time.Hour) }})
	if _, err := claimant.TryClaim(bg, 1); err != nil {
		t.Fatal(err)
	}
	heir := mgr(t, dir, "heir", Options{TTL: time.Minute, Retries: 2,
		Backoff: time.Millisecond, Now: func() time.Time { return base }})
	if _, err := heir.TryClaim(bg, 1); !errors.Is(err, ErrContended) {
		t.Fatalf("claim against an ahead-clocked owner = %v, want ErrContended", err)
	}
	if err := claimant.Heartbeat(); err != nil {
		t.Errorf("claimant heartbeat under skew: %v", err)
	}
}

// TestJitterRange pins the ±10% jitter window on retry and heartbeat
// intervals: every sample stays within [0.9d, 1.1d], the samples are not all
// identical (it actually jitters), and non-positive inputs pass through.
func TestJitterRange(t *testing.T) {
	m := mgr(t, t.TempDir(), "w", Options{})
	const d = time.Second
	lo, hi := 900*time.Millisecond, 1100*time.Millisecond
	distinct := make(map[time.Duration]bool)
	for i := 0; i < 200; i++ {
		j := m.Jitter(d)
		if j < lo || j > hi {
			t.Fatalf("Jitter(%v) = %v, outside [%v, %v]", d, j, lo, hi)
		}
		distinct[j] = true
	}
	if len(distinct) < 2 {
		t.Error("200 jitter samples were all identical")
	}
	if m.Jitter(0) != 0 || m.Jitter(-time.Second) != -time.Second {
		t.Error("non-positive durations must pass through unjittered")
	}
}

// TestAbandonedTakeoverTokenExpires is the crashed-arbiter case: a contender
// won the takeover token of a stale lease and died before installing its
// lease. While the token is younger than one TTL its holder may still be
// installing, so the shard stays contended; once the token is a TTL old it
// counts as abandoned, the next contender takes the shard over, and the
// winner clears the abandoned token along with its own.
func TestAbandonedTakeoverTokenExpires(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard-0000.lease")
	stale := lease{Study: "study-sig", Shard: 0, Owner: "dead", Nonce: 1, Deadline: 1}
	data, _ := json.Marshal(stale)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	token := path + ".take-1-0"
	if err := os.WriteFile(token, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	heir := mgr(t, dir, "heir", Options{TTL: time.Minute, Retries: 1, Backoff: time.Millisecond})
	if _, err := heir.TryClaim(bg, 1); !errors.Is(err, ErrContended) {
		t.Fatalf("claim behind a live takeover token = %v, want ErrContended", err)
	}
	old := time.Now().Add(-2 * time.Minute)
	if err := os.Chtimes(token, old, old); err != nil {
		t.Fatal(err)
	}
	shard, err := heir.TryClaim(bg, 1)
	if err != nil || shard != 0 || heir.Takeovers() != 1 {
		t.Fatalf("claim behind an abandoned token = %d, %v (takeovers %d), want a takeover of shard 0",
			shard, err, heir.Takeovers())
	}
	if err := heir.Heartbeat(); err != nil {
		t.Errorf("new owner heartbeat: %v", err)
	}
	if left, _ := filepath.Glob(path + ".take-*"); len(left) != 0 {
		t.Errorf("takeover tokens left behind: %v", left)
	}
}
