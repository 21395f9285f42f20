//go:build linux

package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// poolWorkers is the fixed pool size of every run: min(nproc, 4).
func poolWorkers() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// pinGOMAXPROCS pins GOMAXPROCS to w and refuses a conflicting
// environment, so a number is never compared across pool shapes.
func pinGOMAXPROCS(w int) error {
	if env := os.Getenv("GOMAXPROCS"); env != "" {
		if n, err := strconv.Atoi(env); err != nil || n != w {
			return fmt.Errorf("GOMAXPROCS=%s in the environment disagrees with the benchmark's W=%d (min(nproc,4)); unset it", env, w)
		}
	}
	runtime.GOMAXPROCS(w)
	return nil
}

// hostFingerprint is printed with every run.
func hostFingerprint(w int) string {
	return fmt.Sprintf("host: nproc=%d W=%d GOMAXPROCS=%d go=%s kernel=%s cpu=%q",
		runtime.NumCPU(), w, runtime.GOMAXPROCS(0), runtime.Version(), kernelRelease(), cpuModel())
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// peakRSSMiB is VmHWM from /proc/self/status, 0 if unreadable.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// cpuNanos is user+system CPU of the process (RUSAGE_SELF) or of the
// calling OS thread (RUSAGE_THREAD).
func cpuNanos(who int) int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func processCPU() int64 { return cpuNanos(syscall.RUSAGE_SELF) }
func threadCPU() int64  { return cpuNanos(syscall.RUSAGE_THREAD) }

// clockBase anchors nowNs; span and latency arithmetic is done on int64
// nanoseconds since this instant (monotonic).
var clockBase = time.Now()

func nowNs() int64 { return int64(time.Since(clockBase)) }

// spin is the counted loop the host canary times (see calibrate): private
// to the caller, no memory traffic. The caller must use the result, or the
// compiler drops the loop.
func spin(iters int64) uint64 {
	var x uint64
	for i := int64(0); i < iters; i++ {
		x += uint64(i) ^ (x >> 3)
	}
	return x
}

// busyWait occupies the calling thread until ns of wall-clock time have
// passed and returns the number of clock reads it took. It is the grain of
// every CPU-bound task body: a body that lasts a fixed time, not a fixed
// number of instructions, costs the same whatever the host is doing to the
// vCPU's speed, its caches or its neighbours, so only the program's own
// share of a task moves with them. See README, "Sizing and spread".
func busyWait(ns int64) (reads uint64) {
	for end := nowNs() + ns; nowNs() < end; {
		reads++
	}
	return reads
}

// calibIters is the fixed spin timed at every slice boundary (about 2 ms
// on the sizing host).
const calibIters = 2_000_000

var spinSink atomic.Uint64

// calibrate times the fixed spin and returns ns per 1000 iterations: the
// host-drift canary printed beside every timing.
func calibrate() float64 {
	t0 := nowNs()
	spinSink.Store(spin(calibIters))
	return float64(nowNs()-t0) / (calibIters / 1000)
}
