//go:build race

package throughput

// raceEnabled reports that this test binary runs under the race detector,
// whose slowdown makes overhead ratios meaningless.
const raceEnabled = true
