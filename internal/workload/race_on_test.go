//go:build race

package workload

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
