// Package throughput holds the runtime's three verdict scenarios — the
// comparisons that decide something and have no other home: hetero runs a
// critical chain with fanout on an asymmetric (fast+slow-class) pool to
// separate criticality-aware placement (cats) from class-blind scheduling —
// slow workers simulate their speed deficit by spinning proportionally
// longer, and each cell reports which class ran the chain
// (Point.CritOnFast); locality and chaos are paired comparisons (locality
// on/off, a fault load against a clean run). Each is swept over scheduler × submission mode
// (per-task SubmitPriorityCtx vs SubmitBatchCtx). Dependence shapes and
// producer counts are not swept here:
// the repo benchmark's per-layer arms and the root benchmarks price them
// (DESIGN.md § Testing has the number → where-measured table).
//
// Every run, whatever the scenario, is one leg (leg.run): a fresh runtime,
// the scenario's submissions, WaitCtx, a counter snapshot, Shutdown, and an
// audit that every submitted task reached a terminal state.
//
// Every ratio the package reports — locality on/off, faulty/clean — comes from one driver, pairedRounds. Its
// contract: the task count is split exactly over the rounds (Config.PairRounds,
// default 3, shrunk so no round holds fewer than two tasks) and each round's
// share over two legs per arm; a round runs the arms forward then in reverse
// (arm 0…k, then k…0 — a palindrome, so every arm's legs share one mean
// timestamp and drift that is linear over the round cancels in the round's
// ratio); each round yields one ratio per non-baseline arm against the
// scenario's named baseline arm, baseline÷arm elapsed where the scenario
// reports a speedup and arm÷baseline where it reports an overhead; the
// verdict is the median of those per-round ratios, reported with its
// quartiles and round count (PairedRatio). The baseline arms are the first
// locality-off window (locality) and the clean arm (chaos).
//
// The numbers a change is gated on come from the repo benchmark under
// benchmark/; the one ratio that is a failing check here is
// TestFlightRecorderBudget.
package throughput

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/runtime"
)

// Scenario names understood by Run.
const (
	// ScenarioHetero is criticality-aware placement on an asymmetric
	// pool: a priority-hinted critical chain with a fan of plain tasks
	// hanging off every link, run on a fast class plus a slow class whose
	// workers simulate their speed deficit by spinning SlowFactor times
	// longer per task. The chain is the makespan: cats keeps it on the
	// fast class (Point.CritOnFast ≈ 1) while class-blind fifo/worksteal
	// let slow workers pick chain links up and stretch the critical path.
	// Submission is single-producer so the chain's program order is
	// deterministic.
	ScenarioHetero = "hetero"
	// ScenarioLocality is the producer→consumer cache-affinity workload:
	// one serialized chain per worker, each link re-touching its chain's
	// cache-sized payload. When a link completes on worker W its successor
	// is released W-locally (the locality window), so the consumer reads
	// the payload out of the producer's still-warm cache; with the window
	// disabled every release detours through the shared injector and the
	// payload bounces between workers. The scenario is swept over the
	// locality-window axis (Config.Windows, default off-vs-default), and
	// the on/off cells are measured as drift-cancelling paired rounds
	// (Point.Ratio is the median of per-round ratios) rather than two
	// back-to-back runs, so machine drift between cells cancels out.
	ScenarioLocality = "locality"
	// ScenarioChaos is throughput under faults: the same retry- and
	// deadline-configured workload runs twice per paired round — a clean
	// arm (no injector) against a faulty arm whose bodies are wrapped by a
	// seeded chaos injector making a deterministic ~4% of them panic, fail,
	// or stall. The faulty arm's Point carries Ratio (median of per-round
	// faulty/clean elapsed ratios — the price of recovery under an active
	// fault load) and ChaosSurvival (the fraction of submitted
	// tasks that reached exactly one terminal state — 1.0 is the only
	// acceptable verdict, and the leg errors out on any lost task). The
	// clean arm doubles as the recovery-machinery-idle baseline: its
	// tasks carry the same retry policies and deadlines, unexercised.
	ScenarioChaos = "chaos"
)

// heteroFan is the plain tasks hanging off each chain link of
// ScenarioHetero.
const heteroFan = 7

// Hetero-pool defaults used when the Config fields are unset.
const (
	defaultSlowFactor  = 4
	defaultHeteroGrain = 256
)

// defaultPayloadKB is ScenarioLocality's per-chain payload size when
// Config.PayloadKB is unset: 32 KiB, the canonical L1d size, so a link that
// runs on its producer's core finds the whole payload resident.
const defaultPayloadKB = 32

// defaultPairRounds is the paired-round count when Config.PairRounds is
// unset: each round runs every variant twice in palindrome order, and the
// reported speedup is the median of the per-round ratios — three rounds is
// the smallest count with a non-trivial median.
const defaultPairRounds = 3

// Scenarios lists every scenario in presentation order.
func Scenarios() []string {
	return []string{ScenarioHetero, ScenarioLocality, ScenarioChaos}
}

// Config parameterises a run. It is also the spec of the registered
// "throughput" experiment: the JSON names are the -spec wire names.
type Config struct {
	// Scenarios and Schedulers are the sweep axes (empty = all).
	Scenarios  []string `json:"scenarios,omitempty"`
	Schedulers []string `json:"schedulers,omitempty"`
	// Tasks is the task count per run.
	Tasks int `json:"tasks"`
	// Workers is the pool size.
	Workers int `json:"workers"`
	// Batch, when > 1, additionally measures SubmitBatchCtx in chunks of
	// this size alongside the per-task mode.
	Batch int `json:"batch"`
	// Grain is the spin-work iterations per task body (0 = empty body).
	Grain int `json:"grain"`
	// FastWorkers is the fast-class pool size of ScenarioHetero; the remaining Workers form the slow class, and the
	// total always equals Workers. 0 defaults to a quarter of the pool; the
	// value is clamped to [1, Workers-1] so at least one worker of each
	// class exists (a single-worker pool keeps just the fast class).
	FastWorkers int `json:"fast_workers,omitempty"`
	// SlowFactor is the simulated asymmetry of ScenarioHetero:
	// slow-class workers spin SlowFactor× the nominal grain per task (their
	// class speed is 1/SlowFactor). 0 defaults to 4.
	SlowFactor float64 `json:"slow_factor,omitempty"`
	// Windows is ScenarioLocality's sweep axis: the locality-window values
	// to run the scenario under. 0 means the runtime default window,
	// negative disables the worker-local path (the central-injector
	// baseline). Empty defaults to [-1, 0] — locality off vs on. Other
	// scenarios always run at the runtime default.
	Windows []int `json:"windows,omitempty"`
	// PayloadKB is ScenarioLocality's per-chain payload size in KiB (0 =
	// 32, one L1d worth).
	PayloadKB int `json:"payload_kb,omitempty"`
	// PairRounds is the round count of the paired scenarios (locality,
	// chaos; 0 = 3) — see pairedRounds.
	PairRounds int `json:"pair_rounds,omitempty"`
	// Seed makes ScenarioChaos's fault schedule reproducible.
	Seed int64 `json:"seed"`
}

// Point is one measured cell: one arm of one scenario under one scheduler
// and submission mode.
type Point struct {
	Scenario  string
	Scheduler string
	// Mode is "single" (per-task SubmitPriorityCtx) or "batch" (SubmitBatchCtx).
	Mode  string
	Tasks int
	// Elapsed covers submission through Wait.
	Elapsed time.Duration
	// TasksPerSec is the headline rate: Tasks / Elapsed.
	TasksPerSec float64
	// Executed is the runtime's executed-task count — a determinism and
	// no-lost-tasks check, independent of wall clock.
	Executed uint64
	// CritOnFast is the fraction of ScenarioHetero's critical-chain tasks
	// that executed on the fast worker class (0 for other scenarios). It
	// is the placement verdict: ≈1 for cats, ≈ the fast class's fair
	// share for class-blind schedulers.
	CritOnFast float64
	// Window is the locality window this cell ran under (ScenarioLocality
	// only): 0 is the runtime default, negative is locality disabled.
	Window int
	// Ratio is the driver's verdict on a paired scenario's non-baseline
	// arm — the median of per-round elapsed ratios with its quartiles and
	// round count: on a ScenarioLocality cell its drift-cancelled speedup
	// over the locality-off baseline (off÷on), on ScenarioChaos's faulty arm the
	// fault-load overhead faulty÷clean — how much slower the same workload
	// ran with the fault schedule active, recovery included. Zero on
	// baseline arms and on ScenarioHetero.
	Ratio PairedRatio
	// NsPerTask is the headline latency view of the rate: Elapsed/Tasks in
	// nanoseconds.
	NsPerTask float64
	// Faulty marks ScenarioChaos's injected arm; false on its clean
	// baseline arm (and on every other scenario).
	Faulty bool
	// ChaosSurvival is the fraction of the faulty arm's submitted tasks
	// that reached exactly one terminal state (executed or skipped); the
	// run is only reported at all if the pool stayed alive to the end.
	ChaosSurvival float64
}

// newPoint builds a Point from a cell's identity and its measured totals.
func newPoint(scenario, sched, mode string, tasks int, elapsed time.Duration, executed uint64) Point {
	return Point{
		Scenario:    scenario,
		Scheduler:   sched,
		Mode:        mode,
		Tasks:       tasks,
		Elapsed:     elapsed,
		TasksPerSec: float64(tasks) / elapsed.Seconds(),
		NsPerTask:   float64(elapsed.Nanoseconds()) / float64(tasks),
		Executed:    executed,
	}
}

// sink defeats dead-code elimination of the spin bodies.
var sink uint64

// Run executes the configured scenarios. Every scenario and scheduler name
// is validated before the first runtime is built; cancellation is observed
// between runs.
func Run(ctx context.Context, cfg Config) ([]Point, error) {
	if cfg.Tasks <= 0 {
		return nil, fmt.Errorf("throughput: non-positive task count %d", cfg.Tasks)
	}
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("throughput: non-positive worker count %d", cfg.Workers)
	}
	if len(cfg.Scenarios) == 0 {
		cfg.Scenarios = Scenarios()
	}
	if len(cfg.Schedulers) == 0 {
		cfg.Schedulers = runtime.SchedulerNames()
	}
	for _, scenario := range cfg.Scenarios {
		if !slices.Contains(Scenarios(), scenario) {
			return nil, fmt.Errorf("throughput: unknown scenario %q (valid: %v)", scenario, Scenarios())
		}
	}
	kinds := make([]runtime.SchedulerKind, len(cfg.Schedulers))
	for i, name := range cfg.Schedulers {
		kind, err := runtime.SchedulerByName(name)
		if err != nil {
			return nil, fmt.Errorf("throughput: %w", err)
		}
		kinds[i] = kind
	}
	modes := []string{"single"}
	if cfg.Batch > 1 {
		modes = append(modes, "batch")
	}
	var out []Point
	// One Stats buffer for the whole run: every leg samples counters
	// through StatsInto, so per-cell reporting reuses these slices.
	var st runtime.Stats
	for _, scenario := range cfg.Scenarios {
		for _, kind := range kinds {
			for _, mode := range modes {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				// The paired scenarios compare arms over drift-cancelling
				// rounds and produce one Point per arm; hetero is a single
				// run.
				var ps []Point
				var err error
				switch scenario {
				case ScenarioLocality:
					ps, err = runLocality(ctx, kind, mode, cfg, &st)
				case ScenarioChaos:
					ps, err = runChaos(ctx, kind, mode, cfg, &st)
				default:
					ps, err = runHetero(ctx, kind, mode, cfg, &st)
				}
				if err != nil {
					return nil, err
				}
				out = append(out, ps...)
			}
		}
	}
	return out, nil
}

// leg is one measured run on a fresh runtime — the unit every scenario,
// single-run or paired, is built from.
type leg struct {
	// label names the cell ("scenario/scheduler") in the audit error.
	label string
	mode  string
	// tasks is the number of submissions the audit must account for.
	tasks int
	opts  []runtime.Option
	// submit drives the leg's whole workload; it may wait between phases.
	// The leg's final WaitCtx follows it.
	submit func(rt *runtime.Runtime) error
	// tolerate is set only on fault-load legs: task errors from the final
	// WaitCtx that it accepts are the workload behaving as specified, and
	// skipped tasks count as terminal in the audit.
	tolerate func(error) bool
}

// run executes the leg: runtime.New → submit → WaitCtx → StatsInto →
// Shutdown → lost-task audit. The elapsed time covers submission through
// Wait. The counter snapshot is left in st (the run's shared buffer, so
// reporting allocates nothing) for the caller to read scenario-specific
// counters from.
func (l leg) run(ctx context.Context, st *runtime.Stats) (time.Duration, error) {
	rt := runtime.New(l.opts...)
	defer rt.Shutdown()
	start := time.Now()
	if err := l.submit(rt); err != nil {
		return 0, err
	}
	// WaitCtx drains fully before surfacing task errors, so a tolerated
	// error still leaves every task terminal.
	if err := rt.WaitCtx(ctx); err != nil && (ctx.Err() != nil || l.tolerate == nil || !l.tolerate(err)) {
		return 0, err
	}
	elapsed := time.Since(start)
	rt.StatsInto(st)
	// Exactly one terminal state per submission: executed (terminally
	// failed included) or, under a fault load only, skipped.
	terminal := st.Executed
	if l.tolerate != nil {
		terminal += st.Skipped
	}
	if terminal != uint64(l.tasks) {
		return 0, fmt.Errorf("throughput: %s %s lost tasks: executed %d, skipped %d of %d",
			l.label, l.mode, st.Executed, st.Skipped, l.tasks)
	}
	return elapsed, nil
}

// poolOpts is the plain pool the homogeneous scenarios run on.
func poolOpts(cfg Config, kind runtime.SchedulerKind) []runtime.Option {
	return []runtime.Option{runtime.WithWorkers(cfg.Workers), runtime.WithScheduler(kind)}
}

// runHetero measures one (scheduler, mode) cell of ScenarioHetero: a single
// run whose verdict is the placement fraction, not a ratio.
func runHetero(ctx context.Context, kind runtime.SchedulerKind, mode string, cfg Config, st *runtime.Stats) ([]Point, error) {
	submit, critOnFast := heteroWorkload(ctx, mode, cfg)
	elapsed, err := leg{
		label: ScenarioHetero + "/" + kind.String(), mode: mode, tasks: cfg.Tasks,
		opts: heteroOpts(cfg, kind), submit: submit,
	}.run(ctx, st)
	if err != nil {
		return nil, err
	}
	p := newPoint(ScenarioHetero, kind.String(), mode, cfg.Tasks, elapsed, st.Executed)
	p.CritOnFast = critOnFast()
	return []Point{p}, nil
}

// heteroPool resolves the class split of ScenarioHetero's pool from the
// Config. The pool always totals
// cfg.Workers: FastWorkers is clamped to leave at least one slow worker (a
// single-worker pool degenerates to one fast worker and no slow class at
// all).
func heteroPool(cfg Config) (fast, slow int, factor float64) {
	fast = cfg.FastWorkers
	if fast <= 0 {
		fast = cfg.Workers / 4
	}
	if fast > cfg.Workers-1 {
		fast = cfg.Workers - 1
	}
	if fast < 1 {
		fast = 1
	}
	slow = cfg.Workers - fast
	factor = cfg.SlowFactor
	if factor <= 0 {
		factor = defaultSlowFactor
	}
	return fast, slow, factor
}

// heteroOpts is the asymmetric fast+slow pool ScenarioHetero runs on, under
// the given scheduler.
func heteroOpts(cfg Config, kind runtime.SchedulerKind) []runtime.Option {
	fast, slow, factor := heteroPool(cfg)
	return []runtime.Option{runtime.WithScheduler(kind), runtime.WithWorkerClasses(
		runtime.WorkerClass{Name: "fast", Count: fast, Speed: 1},
		runtime.WorkerClass{Name: "slow", Count: slow, Speed: 1 / factor},
	)}
}

// scaledBody simulates the pool's asymmetry: the body reads its placement
// back from the runtime and spins grain/speed iterations, so a slow-class
// worker holds the task SlowFactor× longer.
func scaledBody(grain int) runtime.Body {
	return func(ctx context.Context) error {
		speed := 1.0
		if pl, ok := runtime.TaskPlacement(ctx); ok {
			speed = pl.Speed
		}
		x := uint64(grain)
		for i := 0; i < int(float64(grain)/speed); i++ {
			x = x*1664525 + 1013904223
		}
		atomic.AddUint64(&sink, x)
		return nil
	}
}

// heteroWorkload builds ScenarioHetero's submissions: a chain-plus-fanout
// DAG. Chain links are InOut on one key with a bottom-level priority hint
// (remaining chain length); each link also writes a group key that
// heteroFan plain readers hang off, so slow workers always have
// non-critical work while the chain drains. Bodies are speed-scaled
// (scaledBody), and chain bodies record which class ran them — critOnFast
// reports that fraction once the leg has drained (Point.CritOnFast).
func heteroWorkload(ctx context.Context, mode string, cfg Config) (submit func(*runtime.Runtime) error, critOnFast func() float64) {
	grain := cfg.Grain
	if grain <= 0 {
		grain = defaultHeteroGrain
	}
	var critTotal, critFast atomic.Int64
	body := scaledBody(grain)
	chainBody := func(ctx context.Context) error {
		critTotal.Add(1)
		if pl, ok := runtime.TaskPlacement(ctx); ok && pl.Class == 0 {
			critFast.Add(1)
		}
		return body(ctx)
	}
	groups := max(cfg.Tasks/(heteroFan+1), 1)
	submit = func(rt *runtime.Runtime) error {
		submitted := 0
		for g := 0; g < groups; g++ {
			// The last group absorbs the remainder so exactly cfg.Tasks tasks
			// are submitted whatever the rounding.
			fan := heteroFan
			if g == groups-1 {
				fan = cfg.Tasks - submitted - (groups - g)
			}
			specs := make([]runtime.TaskSpec, 0, fan+1)
			specs = append(specs, runtime.TaskSpec{
				Name: "chain", Priority: groups - g, Body: chainBody,
				Deps: []runtime.Dep{runtime.InOut("chain"), runtime.Out(int64(g))},
			})
			for f := 0; f < fan; f++ {
				specs = append(specs, runtime.TaskSpec{
					Name: "fan", Body: body,
					Deps: []runtime.Dep{runtime.In(int64(g))},
				})
			}
			submitted += len(specs)
			if err := submitSpecs(ctx, rt, mode, specs); err != nil {
				return err
			}
		}
		return nil
	}
	critOnFast = func() float64 {
		if n := critTotal.Load(); n > 0 {
			return float64(critFast.Load()) / float64(n)
		}
		return 0
	}
	return submit, critOnFast
}

// submitSpecs submits specs as one SubmitBatchCtx or one task at a time,
// according to mode.
func submitSpecs(ctx context.Context, rt *runtime.Runtime, mode string, specs []runtime.TaskSpec) error {
	if mode == "batch" {
		_, err := rt.SubmitBatchCtx(ctx, specs)
		return err
	}
	for _, sp := range specs {
		if _, err := rt.SubmitPriorityCtx(ctx, sp.Name, sp.Priority, sp.Body, sp.Deps...); err != nil {
			return err
		}
	}
	return nil
}

// taskBody builds the per-task workload: grain iterations of an LCG spin
// whose result escapes into sink.
func taskBody(grain int) runtime.Body {
	if grain <= 0 {
		return func(context.Context) error { return nil }
	}
	return func(context.Context) error {
		x := uint64(grain)
		for i := 0; i < grain; i++ {
			x = x*1664525 + 1013904223
		}
		atomic.AddUint64(&sink, x)
		return nil
	}
}
