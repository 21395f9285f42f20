// Package alarm is the process's one way to wait for less than a second
// and wake on time. When every P is idle, Go waits for its next timer in
// epoll_wait, whose timeout is whole milliseconds: a 200 µs timer fires
// after ~1.07 ms, a 1.5 ms one after ~2.14 ms. An alarm is a timerfd the
// netpoller watches, armed beside a Go timer for the same delay; its
// expiry is an epoll event, not a timeout, so it ends that wait within
// tens of microseconds and the scheduler then finds the timer due.
//
// Two entry points, one per shape of wait:
//   - Sleep: a context-aware wait (the runtime's waiters, which wait out a
//     parked task or a retry backoff off the workers; the serve sleep op
//     where the pool cannot take its wait; the chaos stall; a job
//     long-poll, which also ends when the job does);
//   - Arm and Release: an alarm beside a timer someone else owns (the
//     runtime's per-task deadline, whose timer is context.WithTimeout's).
//
// The rules hold for both. A wait of a second or more takes no alarm:
// the rounding is at most 0.11 % of it. At most maxAlarms alarms exist at
// once, free or in use; past that a wait takes its Go timer alone, late but
// never failed, and so does one whose timerfd cannot be had (off Linux
// every wait). The free list holds no armed alarm. Nothing allocates on a
// Sleep, fired or cancelled.
package alarm

import (
	"context"
	"sync"
	"time"
)

// coarse is the wait from which the alarm is not worth its descriptor.
const coarse = time.Second

// Arm returns an alarm that goes off d from now, or nil when the wait
// takes none (d ≤ 0, d ≥ 1 s, the cap reached, no timerfd). Call it after
// the Go timer is set, so the alarm never goes off before the timer is
// due: an early event would only send the scheduler back into a rounded
// wait. Release it once the wait is over, fired or not.
func Arm(d time.Duration) *Alarm {
	if d <= 0 || d >= coarse {
		return nil
	}
	return arm(d)
}

// Release disarms a and hands it back for the next wait (nil is a no-op).
func (a *Alarm) Release() {
	if a != nil {
		a.release()
	}
}

// Sleep waits d, or until ctx ends or done is closed (a nil done never
// is). It returns nil when d has passed and ctx.Err() when it stopped
// early, which is nil too if done closed while ctx was live.
func Sleep(ctx context.Context, d time.Duration, done <-chan struct{}) error {
	t := getTimer(d)
	defer Arm(d).Release()
	select {
	case <-t.C:
		timerPool.Put(t)
		return nil
	case <-done:
	case <-ctx.Done():
	}
	putTimer(t)
	return ctx.Err()
}

// timerPool recycles Sleep's timers. Timer channels are still asynchronous
// at this module's Go version (go.mod says 1.22), so a timer goes back
// empty: received from, or stopped and drained.
var timerPool sync.Pool

// getTimer returns a timer that fires after d.
func getTimer(d time.Duration) *time.Timer {
	if t, _ := timerPool.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// putTimer returns a timer whose tick was not received. A failed Stop means
// the tick is in (or on its way into) the channel, and the blocking receive
// is what keeps it from waking the timer's next user early.
func putTimer(t *time.Timer) {
	if !t.Stop() {
		<-t.C
	}
	timerPool.Put(t)
}
