package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runsOf renders one `go test -bench` line per ns/op value, as alternating
// runs of a single benchmark append them.
func runsOf(name string, ns ...float64) string {
	var sb strings.Builder
	for _, v := range ns {
		fmt.Fprintf(&sb, "%s-2   100   %.0f ns/op   10 allocs/op\n", name, v)
	}
	return sb.String()
}

// TestCompareRuns pins the bench-ab verdict: a gated benchmark fails only
// when its median ratio is past the tolerance and it loses at least two
// thirds of the pairs; an ungated one is reported but never fails.
func TestCompareRuns(t *testing.T) {
	base := []float64{100, 100, 100, 100, 100, 100}
	cases := []struct {
		name string
		head []float64
		fail bool
	}{
		{"BenchmarkSearchFaster", []float64{80, 90, 85, 95, 70, 110}, false},
		{"BenchmarkSearchSlower", []float64{130, 140, 150, 135, 90, 160}, true},
		// Median past the tolerance but only half the pairs lost: noise.
		{"BenchmarkSearchSplit", []float64{200, 200, 200, 90, 90, 90}, false},
		{"BenchmarkTableI", []float64{300, 300, 300, 300, 300, 300}, false},
	}
	for _, tc := range cases {
		path := filepath.Join(t.TempDir(), "base.txt")
		if err := os.WriteFile(path, []byte(runsOf(tc.name, base...)), 0o644); err != nil {
			t.Fatal(err)
		}
		head, err := parse(strings.NewReader(runsOf(tc.name, tc.head...)))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err = compareRuns(head, path, &out)
		if (err != nil) != tc.fail {
			t.Errorf("%s: err = %v, want failure %v; output:\n%s", tc.name, err, tc.fail, out.String())
		}
		if !strings.Contains(out.String(), "/6 pairs") {
			t.Errorf("%s: output lacks the pair count:\n%s", tc.name, out.String())
		}
	}
}
