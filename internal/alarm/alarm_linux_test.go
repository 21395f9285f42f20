package alarm

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// openFDs counts the process's open descriptors (0 if it cannot).
func openFDs() int {
	fds, _ := os.ReadDir("/proc/self/fd")
	return len(fds)
}

// armed reports whether a's timerfd still has an expiry pending.
func (a *Alarm) armed(t *testing.T) bool {
	var spec [2]syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_GETTIME, a.fd, uintptr(unsafe.Pointer(&spec)), 0); errno != 0 {
		t.Fatalf("timerfd_gettime: %v", errno)
	}
	return spec[1] != syscall.Timespec{}
}

// TestSleepAlarmsBounded: more concurrent waiters than the cap allows
// alarms — sleeps, sleeps on goroutines of their own, and sleeps cancelled
// mid-wait — beside 1 000 pending 10 s sleeps (a tenant's retry backoffs,
// each a runtime waiter parked in Sleep; the runtime's own check of them is
// TestWaitersBounded). The descriptors open never exceed the ones
// before plus the cap; once their context is cancelled the pending sleeps
// all end at once and their goroutines with them; and afterwards
// every alarm is on the free list, disarmed, and the descriptors open are
// at most the ones before plus the free list, through two collections (a
// free list the collector could empty would leave its alarms to
// finalizers).
func TestSleepAlarmsBounded(t *testing.T) {
	const waiters, waits, pending = maxAlarms + 32, 20, 1000
	Arm(time.Microsecond).Release() // the netpoller's own descriptors open here
	if openFDs() == 0 {
		t.Skip("cannot count descriptors")
	}
	base, goroutines := openFDs()-len(free), runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired sync.WaitGroup
	fired.Add(pending)
	for i := 0; i < pending; i++ {
		go func() {
			defer fired.Done()
			_ = Sleep(ctx, 10*time.Second, nil)
		}()
	}

	stop, sampled := make(chan struct{}), make(chan int)
	go func() {
		peak := 0
		for {
			select {
			case <-stop:
				sampled <- peak
				return
			default:
			}
			peak = max(peak, openFDs())
			time.Sleep(100 * time.Microsecond)
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, waiters)
	for g := 0; g < waiters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < waits; i++ {
				switch (g + i) % 4 {
				case 0:
					// A half-second sleep, cancelled 100 µs in: its alarm
					// is still armed when it goes back.
					ctx, cancel := context.WithCancel(context.Background())
					go func() {
						_ = Sleep(context.Background(), 100*time.Microsecond, nil)
						cancel()
					}()
					if err := Sleep(ctx, 500*time.Millisecond, nil); !errors.Is(err, context.Canceled) {
						errs <- fmt.Errorf("cancelled sleep returned %v, want context.Canceled", err)
						return
					}
				case 1:
					ran := make(chan struct{})
					go func() {
						_ = Sleep(context.Background(), 200*time.Microsecond, nil)
						close(ran)
					}()
					<-ran
				default:
					if err := Sleep(context.Background(), 200*time.Microsecond, nil); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	peak := <-sampled
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	cancel()
	drained := make(chan struct{})
	go func() { fired.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(time.Second):
		t.Fatalf("%d pending 10 s sleeps not all ended 1 s after their context did", pending)
	}
	for start := time.Now(); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Since(start) > time.Second {
			t.Fatalf("%d goroutines 1 s after every sleep ended, %d before", runtime.NumGoroutine(), goroutines)
		}
	}
	runtime.GC()
	runtime.GC()

	kept := len(free)
	t.Logf("%d descriptors before, %d at the peak, %d after; %d alarms made", base, peak, openFDs(), kept)
	if peak > base+maxAlarms || live.Load() > maxAlarms {
		t.Fatalf("%d descriptors open at the peak, %d alarms live, want at most %d before + the cap %d", peak, live.Load(), base, maxAlarms)
	}
	if got := openFDs(); got > base+kept {
		t.Fatalf("%d descriptors open, want at most %d before + %d on the free list", got, base, kept)
	}
	for i := 0; i < kept; i++ {
		a := <-free
		if a.armed(t) {
			t.Errorf("free alarm fd %d is still armed", a.fd)
		}
		free <- a
	}
}

// TestArmRules: no alarm for a wait that is due, or a second or more away;
// an alarm for a sub-second one, disarmed by Release.
func TestArmRules(t *testing.T) {
	for _, d := range []time.Duration{0, -time.Millisecond, time.Second, time.Hour} {
		if a := Arm(d); a != nil {
			a.Release()
			t.Errorf("Arm(%v) took an alarm", d)
		}
	}
	a := Arm(500 * time.Millisecond)
	if a == nil || !a.armed(t) {
		t.Fatal("Arm(500ms) returned no armed alarm")
	}
	a.Release()
	if a.armed(t) {
		t.Fatal("a released alarm is still armed")
	}
}
