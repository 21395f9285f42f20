package throughput

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/runtime"
	"repro/internal/stats"
)

// PairedRatio is pairedRounds's verdict on one arm: the median and the
// quartiles of its per-round elapsed ratios against the baseline arm, and
// the number of rounds that contributed one. All zero on the baseline arm.
type PairedRatio struct {
	Median, Q1, Q3 float64
	Rounds         int
}

// IQR is the inter-quartile range of the per-round ratios — the spread
// every reported ratio carries.
func (r PairedRatio) IQR() float64 { return r.Q3 - r.Q1 }

// String renders the verdict the way the notes print it.
func (r PairedRatio) String() string {
	return fmt.Sprintf("median %.2fx [%.2f–%.2f] over %d rounds", r.Median, r.Q1, r.Q3, r.Rounds)
}

// armResult is what pairedRounds measured for one arm.
type armResult struct {
	// elapsed is the arm's total over all its legs.
	elapsed time.Duration
	ratio   PairedRatio
}

// pairedRounds is the one driver behind every ratio the package reports
// (see the package comment for the contract). It spreads tasks exactly over
// the rounds and each round's share over two legs per arm, runs each round's
// legs arm 0…k then k…0, and per round takes every non-baseline arm's
// elapsed ratio against the baseline arm: baseline÷arm, or arm÷baseline when
// overhead is set. runLeg runs one leg of n tasks on the given arm and returns
// its elapsed time; a leg error or a cancelled context stops the sweep at
// that leg. rounds <= 0 selects defaultPairRounds, and tiny task counts
// shrink the round count instead of spreading the workload thinner than two
// tasks per round. A round in which either side measured no time
// contributes no ratio.
func pairedRounds(ctx context.Context, tasks, rounds, arms, baseline int, overhead bool, runLeg func(arm, n int) (time.Duration, error)) ([]armResult, error) {
	if rounds <= 0 {
		rounds = defaultPairRounds
	}
	rounds = max(min(rounds, tasks/2), 1)
	res := make([]armResult, arms)
	ratios := make([][]float64, arms)
	round := make([]time.Duration, arms)
	remaining := tasks
	for r := 0; r < rounds; r++ {
		roundTasks := remaining / (rounds - r)
		remaining -= roundTasks
		clear(round)
		for i := 0; i < 2*arms; i++ {
			// Forward half then reverse half: a palindrome over the arms.
			arm, n := i, roundTasks/2
			if i >= arms {
				arm, n = 2*arms-1-i, roundTasks-roundTasks/2
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			el, err := runLeg(arm, n)
			if err != nil {
				return nil, err
			}
			round[arm] += el
			res[arm].elapsed += el
		}
		for arm, el := range round {
			if arm == baseline || el <= 0 || round[baseline] <= 0 {
				continue
			}
			num, den := round[baseline], el
			if overhead {
				num, den = den, num
			}
			ratios[arm] = append(ratios[arm], float64(num)/float64(den))
		}
	}
	for arm, rs := range ratios {
		res[arm].ratio = PairedRatio{
			Median: stats.Percentile(rs, 50),
			Q1:     stats.Percentile(rs, 25),
			Q3:     stats.Percentile(rs, 75),
			Rounds: len(rs),
		}
	}
	return res, nil
}

// chainWorkload builds ScenarioLocality's producer→consumer chain workload:
// one chain per worker, each with its own cache-sized payload and one
// reusable body, shared by every leg of every arm so all arms chase
// identical bytes. The body walks the whole
// payload, so a link scheduled away from its producer's cache pays the full
// transfer.
func chainWorkload(cfg Config) []runtime.Body {
	payloadKB := cfg.PayloadKB
	if payloadKB <= 0 {
		payloadKB = defaultPayloadKB
	}
	bodies := make([]runtime.Body, cfg.Workers)
	for c := range bodies {
		buf := make([]uint64, payloadKB*1024/8)
		bodies[c] = func(context.Context) error {
			var acc uint64
			for i := range buf {
				buf[i] = buf[i]*1664525 + 1013904223
				acc += buf[i]
			}
			atomic.AddUint64(&sink, acc)
			return nil
		}
	}
	return bodies
}

// runLocality measures ScenarioLocality over one (scheduler, mode) cell through pairedRounds, a fresh runtime per leg: one arm per
// configured locality window (default off-vs-on). The baseline is the first
// locality-off (negative) window, or the first window when none is
// disabled. Points carry the per-arm totals (all legs summed); the
// non-baseline ones carry Ratio, the median baseline÷arm speedup.
func runLocality(ctx context.Context, kind runtime.SchedulerKind, mode string, cfg Config, st *runtime.Stats) ([]Point, error) {
	wins := cfg.Windows
	if len(wins) == 0 {
		wins = []int{-1, 0} // locality off vs on
	}
	baseIdx := 0
	for i, w := range wins {
		if w < 0 {
			baseIdx = i
			break
		}
	}
	bodies := chainWorkload(cfg)
	executed := make([]uint64, len(wins))
	res, err := pairedRounds(ctx, cfg.Tasks, cfg.PairRounds, len(wins), baseIdx, false, func(vi, n int) (time.Duration, error) {
		opts := poolOpts(cfg, kind)
		if w := wins[vi]; w != 0 {
			opts = append(opts, runtime.WithLocalityWindow(w))
		}
		el, err := leg{
			label: ScenarioLocality + "/" + kind.String(), mode: mode, tasks: n, opts: opts,
			submit: func(rt *runtime.Runtime) error { return submitChains(ctx, rt, mode, n, bodies) },
		}.run(ctx, st)
		executed[vi] += st.Executed
		return el, err
	})
	if err != nil {
		return nil, err
	}
	pts := make([]Point, len(wins))
	for vi, w := range wins {
		p := newPoint(ScenarioLocality, kind.String(), mode, cfg.Tasks, res[vi].elapsed, executed[vi])
		p.Window = w
		p.Ratio = res[vi].ratio
		pts[vi] = p
	}
	return pts, nil
}

// ScenarioAdaptive's phase shape: each segment pair is one serial chain of
// adaptiveChainLinks speed-scaled links followed by a fan burst of
// 2×Workers fixed-grain tasks, with an adaptiveIdleGap pause after each
// pair (and one before the first) — the quiet beat in which the adaptive
// arm's controller observes the phase and retunes before the next segment
// starts.
const (
	adaptiveChainLinks = 64
	adaptiveIdleGap    = 500 * time.Microsecond
	// adaptiveGrain is the per-task spin grain — a shape constant like the
	// others, not Config.Grain: heavy enough that a chain segment's wall
	// time dwarfs submission and hand-off overhead, so the measured ratio
	// is placement, not bookkeeping. (At the sweep's default grain of 32 a
	// controller with no rules at all reads 1.13× against static
	// worksteal: its ticker keeps a P awake.)
	adaptiveGrain = 8192
	// The adaptive arm's controller settings: a tight sampling period and
	// minimum hysteresis, so a phase is recognised within the idle gap
	// separating two segments.
	adaptivePeriod     = 100 * time.Microsecond
	adaptiveHysteresis = 1
)

// adaptiveArm is one arm of ScenarioAdaptive: a full scheduler
// configuration (the arms ARE the comparison axis) identified by the name
// reported in Point.Scheduler.
type adaptiveArm struct {
	name string
	opts []runtime.Option
}

// adaptiveArms builds the scenario's arms on the hetero pool: the static
// configurations a tuner could have frozen — worksteal as shipped,
// worksteal with the locality window off, and cats — against worksteal
// under adaptive control, listed last.
func adaptiveArms(cfg Config) []adaptiveArm {
	return []adaptiveArm{
		{name: "worksteal", opts: heteroOpts(cfg, runtime.WithScheduler(runtime.WorkSteal))},
		{name: "worksteal-nolocal", opts: heteroOpts(cfg, runtime.WithScheduler(runtime.WorkSteal), runtime.WithLocalityWindow(-1))},
		{name: "cats", opts: heteroOpts(cfg, runtime.WithScheduler(runtime.CATS))},
		{name: "adaptive", opts: heteroOpts(cfg,
			runtime.WithScheduler(runtime.WorkSteal),
			runtime.WithAdaptive(runtime.AdaptiveOptions{Period: adaptivePeriod, Hysteresis: adaptiveHysteresis}),
		)},
	}
}

// runAdaptive measures ScenarioAdaptive over one mode through
// pairedRounds: every arm executes the same phase-shifting workload, with
// the adaptive arm as the baseline, so each round contributes one
// static÷adaptive elapsed ratio per static arm. Every static arm's Point
// carries its own verdict in Ratio; the adaptive arm's carries the
// controller's total applied-decision count and no ratio (it is what the
// others are measured against).
func runAdaptive(ctx context.Context, mode string, cfg Config, st *runtime.Stats) ([]Point, error) {
	arms := adaptiveArms(cfg)
	adaptIdx := len(arms) - 1
	executed := make([]uint64, len(arms))
	var decisions uint64
	res, err := pairedRounds(ctx, cfg.Tasks, cfg.PairRounds, len(arms), adaptIdx, true, func(ai, n int) (time.Duration, error) {
		el, err := adaptiveLeg(ctx, arms[ai], mode, n, cfg.Workers).run(ctx, st)
		executed[ai] += st.Executed
		decisions += st.Adaptive.Decisions // 0 on the static arms' legs
		return el, err
	})
	if err != nil {
		return nil, err
	}
	pts := make([]Point, len(arms))
	for ai, arm := range arms {
		pts[ai] = newPoint(ScenarioAdaptive, arm.name, mode, cfg.Tasks, res[ai].elapsed, executed[ai])
		pts[ai].Ratio = res[ai].ratio
	}
	pts[adaptIdx].AdaptiveDecisions = decisions
	return pts, nil
}

// adaptiveLeg is one leg of ScenarioAdaptive: n tasks of the phase-shifting
// workload on arm's pool. Chain links simulate the asymmetry the
// class-gating rule exists for — a link spins SlowFactor× longer on a slow
// worker; fan tasks spin a fixed grain — any worker serves a burst equally
// well.
func adaptiveLeg(ctx context.Context, arm adaptiveArm, mode string, n, workers int) leg {
	chainBody, fanBody := scaledBody(adaptiveGrain), taskBody(adaptiveGrain)
	return leg{
		label: ScenarioAdaptive + "/" + arm.name, mode: mode, tasks: n, opts: arm.opts,
		submit: func(rt *runtime.Runtime) error {
			return submitAdaptivePhases(ctx, rt, mode, n, 2*workers, chainBody, fanBody)
		},
	}
}

// submitAdaptivePhases drives one leg of ScenarioAdaptive: n tasks as
// alternating chain segments and fan bursts of the given width, each phase
// drained before the next, with an idle gap before the first segment and
// after every pair.
func submitAdaptivePhases(ctx context.Context, rt *runtime.Runtime, mode string, n, fanWidth int, chainBody, fanBody runtime.Body) error {
	time.Sleep(adaptiveIdleGap)
	for seg := 0; n > 0; seg++ {
		links := min(adaptiveChainLinks, n)
		if err := submitAdaptiveSegment(ctx, rt, mode, "link", links, int64(seg), chainBody); err != nil {
			return err
		}
		if err := rt.WaitCtx(ctx); err != nil {
			return err
		}
		n -= links
		if fan := min(fanWidth, n); fan > 0 {
			if err := submitAdaptiveSegment(ctx, rt, mode, "fan", fan, -1, fanBody); err != nil {
				return err
			}
			if err := rt.WaitCtx(ctx); err != nil {
				return err
			}
			n -= fan
		}
		time.Sleep(adaptiveIdleGap)
	}
	return nil
}

// submitAdaptiveSegment submits one phase segment: a chain segment
// (key ≥ 0) serialises its n tasks InOut on the segment key, a fan segment
// (key < 0) submits n independent tasks.
func submitAdaptiveSegment(ctx context.Context, rt *runtime.Runtime, mode, name string, n int, key int64, body runtime.Body) error {
	var deps []runtime.Dep
	if key >= 0 {
		deps = []runtime.Dep{runtime.InOut(key)}
	}
	specs := make([]runtime.TaskSpec, n)
	for i := range specs {
		specs[i] = runtime.TaskSpec{Name: name, Cost: 1, Body: body, Deps: deps}
	}
	return submitSpecs(ctx, rt, mode, specs)
}

// submitChains submits n chain links in round-robin waves — one wave holds
// the next link of every chain, InOut-serialised per chain, so the chains
// progress together and every worker has its own chain hot — per-task or
// batched according to mode.
func submitChains(ctx context.Context, rt *runtime.Runtime, mode string, n int, bodies []runtime.Body) error {
	specs := make([]runtime.TaskSpec, 0, len(bodies))
	for submitted := 0; submitted < n; submitted += len(specs) {
		specs = specs[:0]
		for c := 0; c < len(bodies) && submitted+len(specs) < n; c++ {
			specs = append(specs, runtime.TaskSpec{
				Name: "link", Cost: 1, Body: bodies[c],
				Deps: []runtime.Dep{runtime.InOut(int64(c))},
			})
		}
		if err := submitSpecs(ctx, rt, mode, specs); err != nil {
			return err
		}
	}
	return nil
}

// ScenarioChaos's fault schedule and fault-tolerance knobs. The rates sum
// to 4% of bodies faulted; the stall is longer than the deadline some
// tasks carry, so all three failure classes (panic, error, deadline
// overrun) fire in every faulty leg.
const (
	chaosPanicRate   = 0.01
	chaosErrorRate   = 0.02
	chaosDelayRate   = 0.01
	chaosStickyRate  = 0.25
	chaosDelayStall  = 200 * time.Microsecond
	chaosDeadline    = 100 * time.Microsecond
	chaosRetryMax    = 2
	chaosBackoff     = 50 * time.Microsecond
	chaosMaxBackoff  = 500 * time.Microsecond
	chaosChainStride = 4 // every 4th task joins a dependence chain
	chaosDeadlineMod = 4 // every 4th task (offset 1) carries a deadline
)

// runChaos measures ScenarioChaos over one (scheduler, mode) cell
// through pairedRounds: a clean arm (the baseline) and a fault-injected arm
// run the identical retry- and deadline-configured workload (the clean arm
// simply has no injector) on fresh runtimes, and the faulty arm's
// Ratio is the median of per-round faulty÷clean elapsed ratios.
// Each faulty leg gets a fresh injector with the same seed, so every leg
// replays the same deterministic fault schedule; the leg fails hard if any
// task is lost (terminal states must account for every submission) or if no
// fault actually fired.
func runChaos(ctx context.Context, kind runtime.SchedulerKind, mode string, cfg Config, st *runtime.Stats) ([]Point, error) {
	const clean, faulty = 0, 1
	type totals struct{ executed, skipped uint64 }
	var tot [2]totals
	base := taskBody(cfg.Grain)
	res, err := pairedRounds(ctx, cfg.Tasks, cfg.PairRounds, 2, clean, true, func(vi, n int) (time.Duration, error) {
		// On the faulty arm a task error just means the fault schedule
		// fired — which is the point. The clean arm must stay free of
		// injected failure classes (panics, body errors) — but a deadline
		// overrun is wall-clock, so on a loaded box (the race detector, a
		// saturated CI runner) a deadline task can organically miss its
		// bound with no injector at all; that is the workload behaving as
		// specified, not fault leakage, and the accounting checks still
		// apply.
		var inj *chaos.Injector
		tolerate := func(err error) bool {
			var dl *runtime.DeadlineError
			return errors.As(err, &dl)
		}
		if vi == faulty {
			inj = chaos.New(chaos.Config{
				Seed:       uint64(cfg.Seed),
				PanicRate:  chaosPanicRate,
				ErrorRate:  chaosErrorRate,
				DelayRate:  chaosDelayRate,
				StickyRate: chaosStickyRate,
				Delay:      chaosDelayStall,
			})
			tolerate = func(error) bool { return true }
		}
		el, err := leg{
			label: ScenarioChaos + "/" + kind.String(), mode: mode, tasks: n, opts: poolOpts(cfg, kind),
			submit:   func(rt *runtime.Runtime) error { return submitChaos(ctx, rt, mode, n, inj, base, cfg) },
			tolerate: tolerate,
		}.run(ctx, st)
		if err != nil {
			return 0, err
		}
		// On the clean arm skips would themselves be a bug.
		if vi == clean && st.Skipped != 0 {
			return 0, fmt.Errorf("throughput: chaos/%s clean arm skipped %d tasks", kind, st.Skipped)
		}
		if vi == faulty && n >= 256 {
			if cs := inj.Stats(); cs.Panics+cs.Errors+cs.Delays == 0 {
				return 0, fmt.Errorf("throughput: chaos/%s faulty arm injected nothing over %d tasks", kind, n)
			}
		}
		tot[vi].executed += st.Executed
		tot[vi].skipped += st.Skipped
		return el, nil
	})
	if err != nil {
		return nil, err
	}
	pts := make([]Point, 2)
	for vi := range pts {
		p := newPoint(ScenarioChaos, kind.String(), mode, cfg.Tasks, res[vi].elapsed, tot[vi].executed)
		if vi == faulty {
			p.Faulty = true
			p.Ratio = res[vi].ratio
			// Every leg passed the audit, so the arm's terminal states
			// account for every one of its cfg.Tasks submissions.
			p.ChaosSurvival = float64(tot[vi].executed+tot[vi].skipped) / float64(cfg.Tasks)
		}
		pts[vi] = p
	}
	return pts, nil
}

// submitChaos submits ScenarioChaos's workload: n tasks with retry
// policies, a dependence chain joined by every chaosChainStride-th task
// (so a terminal panic must skip-propagate, not wedge the chain), and a
// deadline shorter than the injected stall on every chaosDeadlineMod-th
// task (so delay faults become deadline overruns). Bodies are wrapped by
// inj keyed on the task index — a nil injector (the clean arm) runs them
// bare. Retry and Deadline are TaskSpec-only knobs, so both modes go
// through SubmitBatchCtx; "single" submits one-spec batches.
func submitChaos(ctx context.Context, rt *runtime.Runtime, mode string, n int, inj *chaos.Injector, base runtime.Body, cfg Config) error {
	chunk := 1
	if mode == "batch" && cfg.Batch > 1 {
		chunk = cfg.Batch
	}
	chains := cfg.Workers
	if chains < 1 {
		chains = 1
	}
	specs := make([]runtime.TaskSpec, 0, chunk)
	flush := func() error {
		if len(specs) == 0 {
			return nil
		}
		_, err := rt.SubmitBatchCtx(ctx, specs)
		specs = specs[:0]
		return err
	}
	for i := 0; i < n; i++ {
		sp := runtime.TaskSpec{
			Name: "c", Cost: 1,
			Body:  inj.Wrap(uint64(i), base),
			Retry: runtime.RetryPolicy{Max: chaosRetryMax, Backoff: chaosBackoff, MaxBackoff: chaosMaxBackoff},
		}
		switch i % chaosChainStride {
		case 0:
			sp.Deps = []runtime.Dep{runtime.InOut(int64(i % chains))}
		case 1:
			if i%chaosDeadlineMod == 1 {
				sp.Deadline = chaosDeadline
			}
		}
		specs = append(specs, sp)
		if len(specs) == chunk {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}
