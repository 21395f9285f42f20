package serve

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"
)

// sleepOp is the built-in sleep as a task body sees it.
var sleepOp = builtinOps()["sleep"]

// sleepP50 times n built-in sleeps of d, each after an idle gap long enough
// for every P to park, which is when Go waits for its timers in a
// millisecond-rounded epoll_wait.
func sleepP50(t *testing.T, n int, d time.Duration) time.Duration {
	t.Helper()
	took := make([]time.Duration, n)
	for i := range took {
		time.Sleep(3 * time.Millisecond)
		t0 := time.Now()
		if err := sleepOp(context.Background(), int64(d)); err != nil {
			t.Fatal(err)
		}
		took[i] = time.Since(t0)
	}
	slices.Sort(took)
	return took[n/2]
}

// keptTime is the p50 a 500 µs sleep must keep. Without the alarm an idle
// process reads ~1 070 µs (the epoll wait rounds up to the next whole
// millisecond), with it ~520 µs; the margin is for a loaded host's
// wake-up latency.
const keptTime = 700 * time.Microsecond

// TestSleepOpKeepsTime: the sleep op holds its worker for the time it was
// given, not for the next whole millisecond. A loaded host only ever makes
// a wake-up later, so the best of three attempts is the op's own figure.
func TestSleepOpKeepsTime(t *testing.T) {
	if raceEnabled {
		t.Skip("a timing check; under the race detector it would time the detector")
	}
	var p50 time.Duration
	for attempt := 1; attempt <= 3; attempt++ {
		if p50 = sleepP50(t, 200, 500*time.Microsecond); p50 <= keptTime {
			t.Logf("attempt %d: 500 µs sleep p50 %v", attempt, p50)
			return
		}
	}
	t.Fatalf("500 µs sleep p50 %v, want ≤ %v: the idle wait rounds to the millisecond again", p50, keptTime)
}

// TestSleepJobKeepsTime is the same through the handler: a chain of four
// 500 µs sleeps, admitted to terminal, in a median of at most four kept
// sleeps (~2.2 ms; ~4.4 ms when each one waits for the next millisecond).
func TestSleepJobKeepsTime(t *testing.T) {
	if raceEnabled {
		t.Skip("a timing check; under the race detector it would time the detector")
	}
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	dep := `"deps":[{"key":"k","mode":"inout"}]`
	task := fmt.Sprintf(`{"op":"sleep","amount":%d,%s}`, 500*time.Microsecond, dep)
	body := `{"tasks":[` + task + `,` + task + `,` + task + `,` + task + `]}`
	var med time.Duration
	for attempt := 1; attempt <= 3; attempt++ {
		took := make([]time.Duration, 31)
		for i := range took {
			time.Sleep(3 * time.Millisecond)
			j := runAdmittedJob(t, s, body)
			took[i] = j.doneAt.Sub(j.admittedAt)
		}
		slices.Sort(took)
		if med = took[len(took)/2]; med <= 4*keptTime {
			t.Logf("attempt %d: chain-4 of 500 µs sleeps, admit→terminal median %v", attempt, med)
			return
		}
	}
	t.Fatalf("chain-4 of 500 µs sleeps: admit→terminal median %v, want ≤ %v", med, 4*keptTime)
}
