package dse

// Distributed-sweep chaos tests: N-worker sharded explorations whose merged
// journals must be byte-identical to a single-process run, including after a
// worker is SIGKILLed mid-shard and its lease reclaimed by a survivor. The
// subprocess worker reuses the test binary (TestShardWorkerHelper, gated by
// environment), the standard pattern for kill-for-real process testing.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nnbaton/internal/ckpt"
	"nnbaton/internal/engine"
	"nnbaton/internal/faults"
	"nnbaton/internal/lease"
	"nnbaton/internal/store"
)

const shardWorkerEnv = "NNBATON_SHARD_WORKER"

// singleProcessJournal runs the uninterrupted reference study into a journal
// and returns the journal path.
func singleProcessJournal(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "single.jsonl")
	j, err := ckpt.OpenWith(path, ckpt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	eng := engine.NewFromConfig(cm, engine.Config{Journal: j})
	if _, err := Explore(ctx, tinyModel(), tinySpace(), 512, 3.0, eng); err != nil {
		t.Fatal(err)
	}
	return path
}

// mergedBytes folds journals through ckpt.MergeFiles.
func mergedBytes(t *testing.T, paths ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ckpt.MergeFiles(&buf, paths...); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestShardRanges(t *testing.T) {
	cases := []struct {
		points, shards int
		want           []ShardRange
	}{
		{3, 2, []ShardRange{{0, 2}, {2, 3}}},
		{4, 2, []ShardRange{{0, 2}, {2, 4}}},
		{2, 5, []ShardRange{{0, 1}, {1, 2}}}, // never an empty shard
		{5, 1, []ShardRange{{0, 5}}},
		{0, 3, nil},
		{3, 0, nil},
	}
	for _, c := range cases {
		got := ShardRanges(c.points, c.shards)
		if len(got) != len(c.want) {
			t.Errorf("ShardRanges(%d,%d) = %v, want %v", c.points, c.shards, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("ShardRanges(%d,%d)[%d] = %v, want %v", c.points, c.shards, i, got[i], c.want[i])
			}
		}
	}
}

// TestShardedExploreTwoWorkersMergeIdentical runs two concurrent in-process
// workers over a shared lease directory and cache, each journaling to its own
// file, and proves the merged shard journals are byte-identical to the
// single-process journal.
func TestShardedExploreTwoWorkersMergeIdentical(t *testing.T) {
	dir := t.TempDir()
	single := singleProcessJournal(t, dir)
	const shards = 2
	sig := StudySignature(tinyModel(), tinySpace(), 512, 3.0, shards)

	var journals []string
	var wg sync.WaitGroup
	errs := make([]error, 2)
	results := make([]ShardedResult, 2)
	for w := 0; w < 2; w++ {
		owner := []string{"w0", "w1"}[w]
		path := filepath.Join(dir, owner+".jsonl")
		journals = append(journals, path)
		wg.Add(1)
		go func(w int, owner, path string) {
			defer wg.Done()
			j, err := ckpt.OpenWith(path, ckpt.Options{})
			if err != nil {
				errs[w] = err
				return
			}
			defer j.Close()
			cache, err := store.Open(filepath.Join(dir, "cache"), nil)
			if err != nil {
				errs[w] = err
				return
			}
			defer cache.Close()
			mgr, err := lease.New(filepath.Join(dir, "leases"), sig, owner, lease.Options{TTL: time.Minute})
			if err != nil {
				errs[w] = err
				return
			}
			eng := engine.NewFromConfig(cm, engine.Config{Workers: 2, Journal: j, Cache: cache})
			results[w], errs[w] = RunShardedExplore(ctx, tinyModel(), tinySpace(), 512, 3.0, eng, mgr, shards)
		}(w, owner, path)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if done := len(results[0].Completed) + len(results[1].Completed); done != shards {
		t.Errorf("workers completed %d shards total, want %d", done, shards)
	}
	merged, solo := mergedBytes(t, journals...), mergedBytes(t, single)
	if !bytes.Equal(merged, solo) {
		t.Errorf("merged shard journals differ from the single-process journal:\n%s\nvs\n%s", merged, solo)
	}
}

// spawnShardWorker starts one sharded worker as a real subprocess (this test
// binary re-run with the helper gate set).
func spawnShardWorker(t *testing.T, dir, owner, ttl, delay string) (*exec.Cmd, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "TestShardWorkerHelper$", "-test.v")
	out := new(bytes.Buffer)
	cmd.Stdout, cmd.Stderr = out, out
	cmd.Env = append(os.Environ(),
		shardWorkerEnv+"=1",
		"NNBATON_SHARD_DIR="+dir,
		"NNBATON_SHARD_OWNER="+owner,
		"NNBATON_SHARD_TTL="+ttl,
		"NNBATON_SHARD_DELAY="+delay,
	)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd, out
}

// journaledExplores counts completed compute-configuration records in a
// journal file (ignoring meta records), tolerating a missing file.
func journaledExplores(path string) int {
	seen, _, err := ckpt.Load(path)
	if err != nil {
		return 0
	}
	n := 0
	for key := range seen {
		if strings.HasPrefix(key, "explore|") {
			n++
		}
	}
	return n
}

// TestShardWorkerHelper is the subprocess body of the SIGKILL chaos test; it
// only runs when re-executed with the worker environment set.
func TestShardWorkerHelper(t *testing.T) {
	if os.Getenv(shardWorkerEnv) == "" {
		t.Skip("subprocess helper, driven by TestChaosShardedWorkerKillReclaimMerge")
	}
	dir := os.Getenv("NNBATON_SHARD_DIR")
	owner := os.Getenv("NNBATON_SHARD_OWNER")
	ttl, err := time.ParseDuration(os.Getenv("NNBATON_SHARD_TTL"))
	if err != nil {
		t.Fatal(err)
	}
	if d := os.Getenv("NNBATON_SHARD_DELAY"); d != "" && d != "0" {
		delay, err := time.ParseDuration(d)
		if err != nil {
			t.Fatal(err)
		}
		// Slow every compute configuration down so the parent can SIGKILL
		// this worker mid-shard deterministically.
		faults.Set(faults.NewInjector(faults.Rule{Site: "dse.explore_compute",
			Kind: faults.KindDelay, Delay: delay}))
		defer faults.Clear()
	}
	// Buffered journal (no per-record fsync): a SIGKILLed worker must still
	// lose nothing, since each record is one write syscall.
	j, err := ckpt.OpenWith(filepath.Join(dir, owner+".jsonl"), ckpt.Options{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	cache, err := store.Open(filepath.Join(dir, "cache"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	const shards = 2
	sig := StudySignature(tinyModel(), tinySpace(), 512, 3.0, shards)
	mgr, err := lease.New(filepath.Join(dir, "leases"), sig, owner, lease.Options{TTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.NewFromConfig(cm, engine.Config{Workers: 1, Journal: j, Cache: cache})
	if _, err := RunShardedExplore(context.Background(), tinyModel(), tinySpace(), 512, 3.0, eng, mgr, shards); err != nil {
		t.Fatalf("worker %s: %v", owner, err)
	}
}

// TestChaosShardedWorkerKillReclaimMerge is the worker-death acceptance test:
// worker A (a real subprocess) is SIGKILLed mid-shard; worker B reclaims A's
// expired lease, re-evaluates the shard, and finishes the study. The merge of
// both workers' journals must be byte-identical to the single-process run.
func TestChaosShardedWorkerKillReclaimMerge(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills subprocesses")
	}
	dir := t.TempDir()
	single := singleProcessJournal(t, dir)
	victimJournal := filepath.Join(dir, "victim.jsonl")

	// The victim evaluates slowly (400ms per compute configuration) under a
	// short lease TTL; SIGKILL it as soon as its first record lands.
	victim, victimOut := spawnShardWorker(t, dir, "victim", "750ms", "400ms")
	deadline := time.Now().Add(30 * time.Second)
	for journaledExplores(victimJournal) == 0 {
		if time.Now().After(deadline) {
			victim.Process.Kill()
			victim.Wait()
			t.Fatalf("victim journaled nothing in 30s; output:\n%s", victimOut)
		}
		time.Sleep(10 * time.Millisecond)
	}
	killedAt := journaledExplores(victimJournal)
	if err := victim.Process.Kill(); err != nil { // SIGKILL: no deferred cleanup runs
		t.Fatal(err)
	}
	victim.Wait()
	total := len(tinySpace().ComputeConfigs(512))
	if killedAt >= total {
		t.Skipf("victim finished all %d configurations before the kill landed", total)
	}

	// The survivor must wait out the victim's lease, take its shard over and
	// complete the study.
	heir, heirOut := spawnShardWorker(t, dir, "heir", "750ms", "0")
	if err := heir.Wait(); err != nil {
		t.Fatalf("surviving worker failed: %v\noutput:\n%s", err, heirOut)
	}

	merged := mergedBytes(t, victimJournal, filepath.Join(dir, "heir.jsonl"))
	solo := mergedBytes(t, single)
	if !bytes.Equal(merged, solo) {
		t.Errorf("merged worker journals differ from the single-process journal:\n%s\nvs\n%s", merged, solo)
	}
	// Every shard carries a done marker: the study is provably complete.
	sig := StudySignature(tinyModel(), tinySpace(), 512, 3.0, 2)
	check, err := lease.New(filepath.Join(dir, "leases"), sig, "check", lease.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := check.TryClaim(ctx, 2); !errors.Is(err, lease.ErrAllDone) {
		t.Errorf("post-run claim = %v, want ErrAllDone", err)
	}
}
