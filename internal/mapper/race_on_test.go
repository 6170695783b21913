//go:build race

package mapper

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
