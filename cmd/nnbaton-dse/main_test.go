package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

const mainEnv = "NNBATON_RUN_MAIN"

// TestMain runs the command itself when TestCommand re-executes the test
// binary with mainEnv set.
func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCommand re-executes the test binary as the command and returns its
// combined output and exit code.
func runCommand(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); ok {
		return string(out), ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

// TestCommand smoke-tests the wiring of the shared flags: a fast granularity study
// writes its -metrics file and exits 0, and -fsync without -checkpoint
// exits 2.
func TestCommand(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "m.json")
	out, code := runCommand(t, "-mode", "granularity", "-model", "alexnet", "-metrics", metrics)
	if code != 0 || !strings.Contains(out, "recommended:") {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
	if _, err := os.Stat(metrics); err != nil {
		t.Errorf("-metrics not written: %v", err)
	}
	if out, code := runCommand(t, "-fsync"); code != 2 || !strings.Contains(out, "nnbaton-dse: -fsync requires -checkpoint") {
		t.Errorf("bad flag: exit %d, output:\n%s", code, out)
	}
}
