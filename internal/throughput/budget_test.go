//go:build unix

package throughput

import (
	"context"
	stdruntime "runtime"
	"syscall"
	"testing"
	"time"

	"repro/internal/flightrec"
	"repro/internal/runtime"
)

// The flight recorder's stated budget — at most 10 % on the task rate — as
// a failing check, in the regime the gate's numbers come from: GOMAXPROCS=2,
// two workers plus one submitter, worksteal, ~8 µs bodies, the random-DAG
// dependence shape in batches of 16 with 128 tasks in flight (the submitter
// blocks on the queue bound, so the pool idles and refills the way the
// benchmark's closed loop makes it). Recorder on vs off through
// pairedRounds: nine rounds, median of the per-round on÷off ratios.
//
// The ratio is a wall-clock measurement on a shared host, so one attempt
// over the line is re-measured (twice at most) before it counts: noise that
// inflates one attempt does not repeat, a recorder that really costs more
// than its budget fails all three. And an attempt counts against the
// recorder only if the process had its two CPUs (at least 1.5 of them over
// the attempt's wall time — a pool that parks its way over the budget still
// uses ~1.6, a host shared with another test binary leaves ~1.0): go test
// runs packages side by side, and a ratio taken while another package holds
// the CPUs measures that package.
func TestFlightRecorderBudget(t *testing.T) {
	const (
		budget   = 1.10
		rounds   = 9
		legTasks = 24000 // ~0.12 s per leg at ~200k tasks/s
	)
	switch {
	case raceEnabled:
		t.Skip("overhead ratios under the race detector measure the detector")
	case testing.Short():
		t.Skip("several seconds of measurement")
	case stdruntime.NumCPU() < 2:
		t.Skip("the budget is stated for two real CPUs")
	}
	defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(2))
	ctx := context.Background()
	cfg := Config{Workers: 2, Producers: 1, Batch: 16, Keys: 256, Seed: 1}
	body := taskBody(spinGrain(8 * time.Microsecond))
	arms := [][]runtime.Option{
		append(poolOpts(cfg, runtime.WorkSteal, 0), runtime.WithQueueBound(128)),
		append(poolOpts(cfg, runtime.WorkSteal, 0), runtime.WithQueueBound(128),
			runtime.WithFlightRecorder(flightrec.Options{})),
	}
	var st runtime.Stats
	var verdict PairedRatio
	quiet := false
	for attempt := 1; attempt <= 3; attempt++ {
		cpu0, t0 := processCPU(t), time.Now()
		res, err := pairedRounds(ctx, 2*rounds*legTasks, rounds, len(arms), 0, true, func(arm, n int) (time.Duration, error) {
			el, _, err := leg{
				label: "recorder-budget", mode: "batch", tasks: n, opts: arms[arm],
				submit: func(rt *runtime.Runtime) error {
					return submitWave(ctx, rt, ScenarioRandom, "batch", n, body, cfg)
				},
			}.run(ctx, &st)
			return el, err
		})
		if err != nil {
			t.Fatal(err)
		}
		share := float64(processCPU(t)-cpu0) / float64(time.Since(t0))
		verdict = res[1].ratio
		t.Logf("attempt %d on %.2f CPUs: recorder on÷off %v (IQR %.3f)", attempt, share, verdict, verdict.IQR())
		if verdict.Median <= budget {
			return
		}
		quiet = quiet || share >= 1.5
	}
	if !quiet {
		t.Skip("no attempt had two CPUs to itself; the budget cannot be judged on a contended host")
	}
	t.Fatalf("flight recorder over its budget: on÷off %v, want median ≤ %.2f", verdict, budget)
}

// processCPU is the process's user+system CPU time so far.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// spinGrain calibrates taskBody's grain to d of spinning on this host.
func spinGrain(d time.Duration) int {
	const probe = 1 << 20
	body := taskBody(probe)
	best := time.Duration(1 << 62)
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		_ = body(context.Background())
		best = min(best, time.Since(t0))
	}
	return max(int(float64(probe)*float64(d)/float64(best)), 1)
}
