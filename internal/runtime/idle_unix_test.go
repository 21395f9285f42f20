//go:build unix

package runtime

import (
	stdruntime "runtime"
	"syscall"
	"testing"
	"time"
)

// processCPU is the process's user+system CPU time so far.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// (d) An idle pool is asleep: once Wait has returned and the last searches
// have run out, 200 ms of wall clock adds no search and (next to) no CPU —
// the search phase is bounded, it does not turn the pool into a polling
// one. And it stays asleep through a wake that carries no work: workers
// woken by a broadcast whose tasks others took park again at once, with no
// search in between (only a worker that has dispatched since it last slept
// may search — otherwise every broadcast would cost a search budget per
// sleeper it did not feed).
func TestSearchIdlePoolIsAsleep(t *testing.T) {
	const workers = 4
	r := New(WithWorkers(workers))
	defer r.Shutdown()
	s := r.sched.(*stealScheduler)
	for i := 0; i < 200; i++ {
		if _, err := r.Submit("t", 1, func() { spinFor(5 * time.Microsecond) }); err != nil {
			t.Fatal(err)
		}
	}
	r.Wait()
	waitFor(t, 5*time.Second, func() bool { return s.parked.Load() == workers }, "the drained pool to park")

	// Other goroutines of the test binary (the collector above all) also
	// bill RUSAGE_SELF, and noise only ever adds CPU: the quietest of a few
	// windows is the pool's own figure. The counters must hold in every one.
	before := readIdle(r)
	quietest := time.Hour
	for attempt := 0; attempt < 5 && quietest >= 5*time.Millisecond; attempt++ {
		cpu0 := processCPU(t)
		time.Sleep(200 * time.Millisecond)
		quietest = min(quietest, processCPU(t)-cpu0)
	}
	if d := readIdle(r).since(before); d.searches != 0 || d.parks != 0 {
		t.Fatalf("idle pool recorded %d searches and %d parks", d.searches, d.parks)
	}
	if quietest >= 5*time.Millisecond {
		t.Fatalf("idle pool burned %v of CPU in 200 ms of wall clock, want < 5ms", quietest)
	}

	// A wake for work that is gone by the time the woken workers sweep for
	// it: the queued count is raised for the wake and dropped once every
	// sleeper has left the lot, which is what losing the race for a
	// broadcast batch looks like from the loser's side.
	s.pending.Add(1)
	s.wakeWorkers(workers)
	waitFor(t, 5*time.Second, func() bool { return readIdle(r).since(before).wakes == workers }, "every sleeper to wake")
	s.pending.Add(-1)
	waitFor(t, 5*time.Second, func() bool { return s.parked.Load() == workers }, "the woken workers to park again")
	if d := readIdle(r).since(before); d.searches != 0 || d.parks != workers {
		t.Fatalf("workers woken to an empty pool: %d searches, %d parks, want 0 and %d", d.searches, d.parks, workers)
	}
}

// (e) The bound itself: under steady dependence-heavy load on two workers
// the pool parks less than once per thousand tasks. Without the search
// phase the same loop parks about twelve times per thousand (once per 84
// tasks — each park ~67 µs of an idle P), so this fails at any commit that
// sleeps on the first empty sweep.
//
// The park rate is a property of the pool only while the pool has the two
// CPUs to itself: when other processes (go test runs packages side by side)
// take them, a searching worker is descheduled mid-budget and parks. So an
// attempt counts only if the process got at least 1.5 of the 2 CPUs it
// needs over the attempt's wall time (a pool that parks on every empty sweep
// still uses ~1.9, a host shared with another test binary leaves ~1.0); a
// run that never gets a quiet attempt skips instead of blaming the pool.
// Even a quiet attempt reads anywhere from ~0.6 to ~1.2 (a hypervisor tick
// that deschedules a searching worker shows as parks), so the test fails
// only when every quiet attempt reads ≥ 1; without the search phase every
// attempt reads ~12.
func TestParkBoundUnderSteadyLoad(t *testing.T) {
	if raceEnabled {
		t.Skip("park rate under the race detector's slowdown says nothing about the idle protocol")
	}
	if stdruntime.NumCPU() < 2 {
		t.Skip("needs two real CPUs: one submitter and two workers on two Ps is the regime the bound is stated for")
	}
	defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(2))
	r := New(WithWorkers(2), WithQueueBound(2048))
	defer r.Shutdown()
	const graphs = 3000
	braidLoop(t, r, 200, 8, 8*time.Microsecond) // warm-up
	// quiet holds the park rates of the attempts that had the CPUs.
	var quiet []float64
	for attempt := 1; attempt <= 5; attempt++ {
		before, cpu0, t0 := readIdle(r), processCPU(t), time.Now()
		braidLoop(t, r, graphs, 8, 8*time.Microsecond)
		share := float64(processCPU(t)-cpu0) / float64(time.Since(t0))
		d := readIdle(r).since(before)
		perK := float64(d.parks) * 1000 / float64(d.executed)
		t.Logf("attempt %d: %d tasks on %.2f CPUs: %d parks (%.2f per 1000), %d searches, %d hits",
			attempt, d.executed, share, d.parks, perK, d.searches, d.hits)
		if d.executed != graphs*16 {
			t.Fatalf("executed %d tasks, want %d", d.executed, graphs*16)
		}
		if perK < 1 {
			return
		}
		if share >= 1.5 {
			quiet = append(quiet, perK)
		}
	}
	if len(quiet) == 0 {
		t.Skip("no attempt had two CPUs to itself; the park bound cannot be judged on a contended host")
	}
	t.Fatalf("parks per 1000 tasks under steady load with the CPUs to itself: %.2f, want < 1 in at least one attempt", quiet)
}
