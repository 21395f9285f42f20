//go:build !race

package chaos

import (
	"context"
	"slices"
	"testing"
	"time"
)

// TestDelayKeepsTime: a 200 µs stall takes at most 300 µs at the p50 in an
// idle process (~1.08 ms on a plain Go timer, which an idle process waits
// for in a millisecond-rounded epoll_wait), so a stall-vs-deadline drill
// times the fault, not the timer. Each stall follows a 3 ms idle gap; a
// loaded host only ever makes a wake-up later, so the best of three
// 200-stall attempts is the stall's own figure.
func TestDelayKeepsTime(t *testing.T) {
	const asked, kept = 200 * time.Microsecond, 300 * time.Microsecond
	in := New(Config{Seed: 5, DelayRate: 1, StickyRate: 1, Delay: asked})
	body := in.Wrap(1, func(context.Context) error { return nil })
	var p50 time.Duration
	for attempt := 1; attempt <= 3; attempt++ {
		took := make([]time.Duration, 200)
		for i := range took {
			time.Sleep(3 * time.Millisecond)
			t0 := time.Now()
			if err := body(context.Background()); err != nil {
				t.Fatal(err)
			}
			took[i] = time.Since(t0)
		}
		slices.Sort(took)
		if p50 = took[len(took)/2]; p50 <= kept {
			t.Logf("attempt %d: %v stall p50 %v", attempt, asked, p50)
			return
		}
	}
	t.Fatalf("%v stall p50 %v, want ≤ %v: the idle wait rounds to the millisecond again", asked, p50, kept)
}
