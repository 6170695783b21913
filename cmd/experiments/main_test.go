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

// TestCommand smoke-tests the wiring of the shared flags: a table experiment
// writes its -metrics file and exits 0, an unknown experiment still writes
// it and exits 1, and -resume without -checkpoint exits 2.
func TestCommand(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "m.json")
	out, code := runCommand(t, "-exp", "table2", "-metrics", metrics)
	if code != 0 || !strings.Contains(out, "### table2") {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
	if _, err := os.Stat(metrics); err != nil {
		t.Errorf("-metrics not written: %v", err)
	}
	failed := filepath.Join(t.TempDir(), "failed.json")
	if out, code := runCommand(t, "-exp", "nope", "-metrics", failed); code != 1 || !strings.Contains(out, `unknown experiment "nope"`) {
		t.Errorf("unknown experiment: exit %d, output:\n%s", code, out)
	}
	if _, err := os.Stat(failed); err != nil {
		t.Errorf("-metrics not written on failure: %v", err)
	}
	if out, code := runCommand(t, "-resume"); code != 2 || !strings.Contains(out, "experiments: -resume requires -checkpoint") {
		t.Errorf("bad flag: exit %d, output:\n%s", code, out)
	}
}
