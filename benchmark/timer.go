//go:build linux

package main

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

// dueTimer wakes the open loop's generator at its send times. time.Sleep
// cannot: an idle Go process waits in epoll with a timeout rounded to
// milliseconds, so it overshoots by about 0.5 ms here (p90 1 ms), and
// yield-spinning through that from a locked thread costs two thread
// hand-offs per yield, charged to the server's side of the CPU split. A
// timerfd is an event on the netpoller, not a timeout, and fires within
// about 40 µs (p99 160 µs); the generator sleeps on it until spinLeadNs
// before the due time and spins the rest on its own thread.
type dueTimer struct {
	// fd is kept beside the file because File.Fd would switch the
	// descriptor back to blocking mode.
	fd  uintptr
	f   *os.File
	buf [8]byte
}

// spinLeadNs is how long before a due time the timer is set to fire.
const spinLeadNs = 200_000

const (
	clockMonotonic = 1
	tfdNonblock    = 0x800
)

func newDueTimer() (*dueTimer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// Non-blocking, so the os package hands it to the netpoller and a Read
	// parks the goroutine without holding a P.
	return &dueTimer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

func (t *dueTimer) close() { _ = t.f.Close() } // nothing written, nothing to lose

// waitUntil returns at due on the harness clock (or at once if it has
// passed).
func (t *dueTimer) waitUntil(due int64) error {
	if d := due - spinLeadNs - nowNs(); d > 0 {
		// struct itimerspec: it_interval (none), then it_value.
		spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(d)}
		if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
			return fmt.Errorf("timerfd_settime: %w", errno)
		}
		if _, err := t.f.Read(t.buf[:]); err != nil {
			return fmt.Errorf("timerfd read: %w", err)
		}
	}
	for nowNs() < due {
	}
	return nil
}
