//go:build unix

package throughput

import (
	"context"
	"math/rand"
	stdruntime "runtime"
	"syscall"
	"testing"
	"time"

	"repro/internal/flightrec"
	"repro/internal/runtime"
)

// The two wall-clock verdicts that are failing checks rather than numbers
// in a report share their rules. Both are stated for GOMAXPROCS=2 on two
// real CPUs, without the race detector (pinTwoCPUs). Both are ratios
// measured on a shared host, so one attempt over the line is re-measured
// (twice at most) before it counts: noise that moves one attempt does not
// repeat, a mechanism that really misses its line fails all three. And an
// attempt counts against the mechanism only if the process had its CPUs (at
// least minShare of them over the attempt's wall time): go test runs
// packages side by side, and a ratio taken while another package holds the
// CPUs measures that package (judgeRatio).
func pinTwoCPUs(t *testing.T) {
	t.Helper()
	switch {
	case raceEnabled:
		t.Skip("wall-clock ratios under the race detector measure the detector")
	case testing.Short():
		t.Skip("several seconds of measurement")
	case stdruntime.NumCPU() < 2:
		t.Skip("the line is stated for two real CPUs")
	}
	prev := stdruntime.GOMAXPROCS(2)
	t.Cleanup(func() { stdruntime.GOMAXPROCS(prev) })
}

func judgeRatio(t *testing.T, what string, minShare float64, pass func(median float64) bool, measure func() (PairedRatio, error)) {
	t.Helper()
	var verdict PairedRatio
	quiet := false
	for attempt := 1; attempt <= 3; attempt++ {
		cpu0, t0 := processCPU(t), time.Now()
		var err error
		if verdict, err = measure(); err != nil {
			t.Fatal(err)
		}
		share := float64(processCPU(t)-cpu0) / float64(time.Since(t0))
		t.Logf("attempt %d on %.2f CPUs: %s %v (IQR %.3f)", attempt, share, what, verdict, verdict.IQR())
		if pass(verdict.Median) {
			return
		}
		quiet = quiet || share >= minShare
	}
	if !quiet {
		t.Skipf("no attempt had %.1f CPUs to itself; %s cannot be judged on a contended host", minShare, what)
	}
	t.Fatalf("%s %v misses its line", what, verdict)
}

// The flight recorder's stated budget — at most 10 % on the task rate — as
// a failing check, in the regime the gate's numbers come from: GOMAXPROCS=2,
// two workers plus one submitter, worksteal, ~8 µs bodies, the random-DAG
// dependence shape in batches of 16 with 128 tasks in flight (the submitter
// blocks on the queue bound, so the pool idles and refills the way the
// benchmark's closed loop makes it). Recorder on vs off through
// pairedRounds: nine rounds, median of the per-round on÷off ratios. A quiet
// attempt used at least 1.5 CPUs — a pool that parks its way over the
// budget still uses ~1.6, a host shared with another test binary leaves
// ~1.0.
func TestFlightRecorderBudget(t *testing.T) {
	const (
		budget   = 1.10
		rounds   = 9
		legTasks = 24000 // ~0.12 s per leg at ~200k tasks/s
	)
	pinTwoCPUs(t)
	ctx := context.Background()
	cfg := Config{Workers: 2}
	body := taskBody(spinGrain(8 * time.Microsecond))
	arms := [][]runtime.Option{
		append(poolOpts(cfg, runtime.WorkSteal), runtime.WithQueueBound(128)),
		append(poolOpts(cfg, runtime.WorkSteal), runtime.WithQueueBound(128),
			runtime.WithFlightRecorder(flightrec.Options{})),
	}
	var st runtime.Stats
	judgeRatio(t, "recorder on÷off", 1.5, func(m float64) bool { return m <= budget }, func() (PairedRatio, error) {
		res, err := pairedRounds(ctx, 2*rounds*legTasks, rounds, len(arms), 0, true, func(arm, n int) (time.Duration, error) {
			return leg{
				label: "recorder-budget", mode: "batch", tasks: n, opts: arms[arm],
				submit: func(rt *runtime.Runtime) error { return submitRandomDAG(ctx, rt, n, body) },
			}.run(ctx, &st)
		})
		if err != nil {
			return PairedRatio{}, err
		}
		return res[1].ratio, nil
	})
}

// submitRandomDAG is TestFlightRecorderBudget's workload, from one
// submitter: n tasks in batches of 16, each with 1–3 dependences of a random
// mode over a 256-key space (seed 1) — the general random-DAG case,
// exercising multi-shard lock ordering.
func submitRandomDAG(ctx context.Context, rt *runtime.Runtime, n int, body runtime.Body) error {
	const batch, keys, seed = 16, 256, 1
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i += batch {
		specs := make([]runtime.TaskSpec, 0, min(batch, n-i))
		for len(specs) < cap(specs) {
			deps := make([]runtime.Dep, 1+rng.Intn(3))
			for j := range deps {
				key := rng.Intn(keys)
				switch rng.Intn(3) {
				case 0:
					deps[j] = runtime.In(key)
				case 1:
					deps[j] = runtime.Out(key)
				default:
					deps[j] = runtime.InOut(key)
				}
			}
			specs = append(specs, runtime.TaskSpec{Name: "t", Cost: 1, Body: body, Deps: deps})
		}
		if _, err := rt.SubmitBatchCtx(ctx, specs); err != nil {
			return err
		}
	}
	return nil
}

// The rent check of the one rule the adaptive controller keeps: on the
// phase-shifting hetero workload (ScenarioAdaptive's legs — serial chains
// whose links cost SlowFactor× on a slow worker, alternating with fans) a
// worksteal pool under the controller must beat the same pool without it
// by at least 1.30× — static÷adaptive elapsed through pairedRounds, nine
// rounds. Measured 1.65–1.70 with the class-mask rule and 1.04–1.07 with
// it commented out (which is also what a controller with no rules reads),
// so the line fails when the rule stops working and not before. The
// workload is mostly one chain plus idle beats, so a quiet attempt uses
// 0.5–0.7 of a CPU; under 0.4 another process had them.
func TestAdaptiveClassRuleRent(t *testing.T) {
	const (
		rent     = 1.30
		rounds   = 9
		workers  = 4
		legTasks = 40 * (adaptiveChainLinks + 2*workers) // 40 chain+fan segment pairs, ~0.1 s per leg
	)
	pinTwoCPUs(t)
	ctx := context.Background()
	all := adaptiveArms(Config{Workers: workers})
	arms := []adaptiveArm{all[0], all[len(all)-1]} // static worksteal, adaptive (the baseline)
	var st runtime.Stats
	judgeRatio(t, "static worksteal÷adaptive", 0.4, func(m float64) bool { return m >= rent }, func() (PairedRatio, error) {
		res, err := pairedRounds(ctx, 2*rounds*legTasks, rounds, len(arms), 1, true, func(arm, n int) (time.Duration, error) {
			return adaptiveLeg(ctx, arms[arm], "single", n, workers).run(ctx, &st)
		})
		if err != nil {
			return PairedRatio{}, err
		}
		return res[0].ratio, nil
	})
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
