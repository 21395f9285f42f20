package alarm

import (
	"context"
	"runtime/debug"
	"testing"
	"time"
)

// TestPooledTimer: a pooled timer must come back empty whichever way its
// last user left it, or it wakes its next user early.
func TestPooledTimer(t *testing.T) {
	// Fired and received; fired and abandoned; stopped early.
	tm := getTimer(time.Microsecond)
	<-tm.C
	timerPool.Put(tm)
	tm = getTimer(time.Microsecond)
	time.Sleep(2 * time.Millisecond)
	putTimer(tm)
	putTimer(getTimer(time.Hour))
	for i := 0; i < 3; i++ {
		tm := getTimer(50 * time.Millisecond)
		start := time.Now()
		<-tm.C
		if d := time.Since(start); d < 40*time.Millisecond {
			t.Fatalf("pooled timer fired after %v, armed for 50ms: a stale tick survived the pool", d)
		}
		timerPool.Put(tm)
	}
}

// TestSleepAllocFree: a wait takes its timer and its alarm from their free
// lists and allocates nothing — fired, cancelled, ended by done (the job
// long-poll), or too long to take an alarm.
func TestSleepAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan struct{})
	close(done)
	run := func() {
		_ = Sleep(context.Background(), 50*time.Microsecond, nil)
		_ = Sleep(ctx, 500*time.Millisecond, nil)
		_ = Sleep(context.Background(), 500*time.Millisecond, done)
		_ = Sleep(ctx, time.Hour, nil)
	}
	run()
	if got := testing.AllocsPerRun(100, run); got != 0 {
		t.Errorf("a wait allocates %.1f objects, want 0", got)
	}
}
