//go:build race

package serve

// raceEnabled reports that this test binary runs under the race detector,
// whose sync.Pool instrumentation drops pooled items on purpose — pooled
// requests, timers and task records then allocate afresh, and allocation
// budgets do not hold.
const raceEnabled = true
