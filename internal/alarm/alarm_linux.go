package alarm

import (
	"os"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Alarm is a non-blocking timerfd, registered with the netpoller through
// os.NewFile. The fd is never read: the epoll event is the whole point,
// and arming it again resets its expiry count.
type Alarm struct {
	// fd is kept beside the file because File.Fd would switch the
	// descriptor back to blocking mode.
	fd uintptr
	f  *os.File
}

// maxAlarms bounds the alarms that exist at once, free plus in use, so a
// tenant's parked waits and pending retries cannot hold a descriptor each.
// Past it a wait keeps only its Go timer and may end up to a millisecond
// late.
const maxAlarms = 64

var (
	// free holds every alarm not in use, disarmed; it has room for all of
	// them, so an alarm is never closed once made.
	free = make(chan *Alarm, maxAlarms)
	// live counts the alarms made: free plus in use.
	live atomic.Int32
)

func arm(d time.Duration) *Alarm {
	var a *Alarm
	select {
	case a = <-free:
	default:
		if live.Add(1) > maxAlarms {
			live.Add(-1)
			return nil
		}
		// CLOCK_MONOTONIC (1), the clock Go's timers run on.
		fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, 1, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
		if errno != 0 { // EMFILE, say: the wait keeps its Go timer
			live.Add(-1)
			return nil
		}
		// Non-blocking, so the os package registers it with the netpoller.
		a = &Alarm{fd: fd, f: os.NewFile(fd, "alarm")}
	}
	a.set(d)
	return a
}

// release disarms a before it goes back: a cancelled wait's alarm is
// still pending, and even a fired one's may be microseconds from expiry.
func (a *Alarm) release() {
	a.set(0)
	free <- a // never blocks: free has room for every live alarm
}

// set arms the alarm to go off d from now; 0 disarms it. A failure leaves
// the wait to its Go timer, as a nil alarm does.
func (a *Alarm) set(d time.Duration) {
	// struct itimerspec: it_interval (none), then it_value.
	spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(int64(d))}
	syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, a.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
}
