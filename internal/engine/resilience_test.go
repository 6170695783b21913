package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"nnbaton/internal/faults"
	"nnbaton/internal/par"
)

func TestIsRetryable(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"panic", &par.PanicError{Site: "engine.search", Op: "x", Value: "boom"}, true},
		{"wrapped panic", fmt.Errorf("outer: %w", &par.PanicError{Value: "boom"}), true},
		{"leader cancelled", &leaderCancelled{cause: context.Canceled}, false},
		{"cancelled", context.Canceled, false},
		{"deadline", context.DeadlineExceeded, true},
		{"wrapped deadline", fmt.Errorf("point overran: %w", context.DeadlineExceeded), true},
		{"transient", faults.Transient("blip"), true},
		{"permanent", faults.Permanent("hard"), false},
		{"unmappable", fmt.Errorf("engine: %w for conv1", ErrUnmappable), false},
		{"plain", errors.New("whatever"), false},
	}
	for _, c := range cases {
		if got := IsRetryable(c.err); got != c.want {
			t.Errorf("IsRetryable(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestBackoffDoublesAndCaps(t *testing.T) {
	c := Config{Backoff: 100 * time.Millisecond}
	for i, want := range []time.Duration{100, 200, 400, 800} {
		if got := c.backoff(i); got != want*time.Millisecond {
			t.Errorf("backoff(%d) = %v, want %v ms", i, got, want)
		}
	}
	if got := (Config{}).backoff(0); got != DefaultBackoff {
		t.Errorf("default backoff = %v, want %v", got, DefaultBackoff)
	}
	if got := (Config{Backoff: time.Second}).backoff(60); got != 30*time.Second {
		t.Errorf("uncapped backoff: %v", got)
	}
}

func TestPanicErrorRendering(t *testing.T) {
	pe := &par.PanicError{Site: "engine.search", Op: "conv3 on 4-8-8-8", Value: "index out of range"}
	msg := pe.Error()
	for _, want := range []string{"engine.search", "conv3", "index out of range"} {
		if !strings.Contains(msg, want) {
			t.Errorf("%q missing %q", msg, want)
		}
	}
}

func TestStatsStringResilienceSection(t *testing.T) {
	quiet := Stats{Lookups: 10, Searches: 5}
	if strings.Contains(quiet.String(), "resilience") {
		t.Error("clean stats must not render the resilience section")
	}
	noisy := Stats{Lookups: 10, Searches: 5, Panics: 1, Retries: 2, Timeouts: 1, Replayed: 3}
	s := noisy.String()
	for _, want := range []string{"1 panics", "2 retries", "1 timeouts", "3 replayed"} {
		if !strings.Contains(s, want) {
			t.Errorf("%q missing %q", s, want)
		}
	}
}
