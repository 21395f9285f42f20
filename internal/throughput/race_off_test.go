//go:build !race

package throughput

// raceEnabled reports whether this test binary runs under the race
// detector; see race_on_test.go.
const raceEnabled = false
