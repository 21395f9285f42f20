//go:build race

package alarm

// raceEnabled reports that this test binary runs under the race detector,
// whose sync.Pool instrumentation drops pooled timers on purpose.
const raceEnabled = true
