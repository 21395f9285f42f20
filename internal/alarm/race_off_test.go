//go:build !race

package alarm

// raceEnabled reports whether this test binary runs under the race
// detector (see race_on_test.go).
const raceEnabled = false
