package throughput

import (
	"context"
	"slices"
	"strings"
	"testing"
)

func smallConfig() Config {
	return Config{
		Schedulers: []string{"worksteal"},
		Tasks:      500,
		Workers:    2,
		Batch:      16,
		Seed:       1,
	}
}

func TestRunAllScenarios(t *testing.T) {
	cfg := smallConfig()
	pts, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// scenarios × schedulers × modes(single, batch); the locality scenario
	// additionally sweeps its two default window cells (off, on), the chaos
	// scenario its two arms (clean, faulty), and the adaptive scenario runs
	// four arms per mode instead of the scheduler axis (three extra rows at
	// one configured scheduler).
	want := (len(Scenarios()) + 1 + 1 + 3) * 1 * 2
	if len(pts) != want {
		t.Fatalf("got %d points, want %d", len(pts), want)
	}
	for _, p := range pts {
		if p.Faulty {
			// The faulty chaos arm terminally fails some tasks by design:
			// its accounting check is full survival, not Executed == Tasks.
			if p.ChaosSurvival != 1 {
				t.Errorf("chaos faulty arm %s: survival %v, want 1", p.Mode, p.ChaosSurvival)
			}
		} else if p.Executed != uint64(cfg.Tasks) {
			t.Errorf("%s/%s %s: executed %d, want %d",
				p.Scenario, p.Scheduler, p.Mode, p.Executed, cfg.Tasks)
		}
		if p.TasksPerSec <= 0 {
			t.Errorf("%s: non-positive rate %v", p.Scenario, p.TasksPerSec)
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	ctx := context.Background()
	if _, err := Run(ctx, Config{Tasks: 0, Workers: 1}); err == nil {
		t.Fatal("zero tasks must be rejected")
	}
	if _, err := Run(ctx, Config{Tasks: 10, Workers: 0}); err == nil {
		t.Fatal("zero workers must be rejected")
	}
	cfg := smallConfig()
	// "steal" was a scenario of the unpaired sweep (deleted in PR 21): a
	// retired name is an unknown name.
	for _, name := range []string{"bogus", "steal"} {
		cfg.Scenarios = []string{name}
		if _, err := Run(ctx, cfg); err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("unknown scenario %q = %v, want naming error", name, err)
		}
	}
	cfg = smallConfig()
	cfg.Schedulers = []string{"lifo"}
	if _, err := Run(ctx, cfg); err == nil || !strings.Contains(err.Error(), "lifo") {
		t.Fatalf("unknown scheduler = %v, want naming error", err)
	}
	// Names are validated before anything runs: a typo after a valid name
	// is reported even when the valid cell could never have started.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	cfg = smallConfig()
	cfg.Scenarios = []string{ScenarioHetero, "topolgy"}
	if _, err := Run(cancelled, cfg); err == nil || !strings.Contains(err.Error(), "topolgy") {
		t.Fatalf("unknown scenario after a valid one = %v, want naming error", err)
	}
	// Scheduler parsing must accept any case (the fixed parse path).
	cfg = smallConfig()
	cfg.Schedulers = []string{"FIFO"}
	cfg.Scenarios = []string{ScenarioHetero}
	if _, err := Run(ctx, cfg); err != nil {
		t.Fatalf("upper-case scheduler name rejected: %v", err)
	}
}

func TestRunHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, smallConfig()); err != context.Canceled {
		t.Fatalf("cancelled run = %v, want context.Canceled", err)
	}
}

func TestTableShape(t *testing.T) {
	pts, err := Run(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	tbl := Table(pts)
	s := tbl.String()
	for _, scenario := range Scenarios() {
		if !strings.Contains(s, scenario) {
			t.Errorf("table missing scenario %q:\n%s", scenario, s)
		}
	}
	// One row per point under the header lines, and no per-shard columns.
	if got, want := strings.Count(strings.TrimSpace(s), "\n")+1, len(pts); got < want {
		t.Errorf("table has %d lines for %d points:\n%s", got, want, s)
	}
	if strings.Contains(s, "-shard") {
		t.Errorf("table still has a shard column:\n%s", s)
	}
	for _, col := range []string{"Ktasks/s", "single", "batch", "off", "def", "clean", "faulty", "worksteal-nolocal"} {
		if !strings.Contains(s, col) {
			t.Errorf("table missing %q:\n%s", col, s)
		}
	}
}

func TestSummarizeNotes(t *testing.T) {
	pts, err := Run(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	notes := summarize(pts)
	// One locality on-vs-off note, one hetero placement note per scheduler
	// in the run (a single one here), per mode one adaptive note per static
	// arm plus the decision count, and the chaos survival/overhead note.
	// Nothing else: every ratio in a note is a pairedRounds verdict.
	if want := 1 + 1 + 2*(3+1) + 1; len(notes) != want {
		t.Fatalf("got %d notes, want %d (locality + hetero placement + 2 modes × (3 static arms + decisions) + chaos):\n%v",
			len(notes), want, notes)
	}
	for _, want := range []string{
		"critical chain on the fast class",
		"worker-local successor placement",
		"static worksteal ÷ the adaptive controller",
		"static worksteal-nolocal ÷ the adaptive controller",
		"static cats ÷ the adaptive controller",
		"policy decisions applied",
		"chaos: survival 1.000",
	} {
		if !slices.ContainsFunc(notes, func(n string) bool { return strings.Contains(n, want) }) {
			t.Errorf("no note containing %q in %v", want, notes)
		}
	}
	for _, n := range notes {
		if strings.Contains(n, "best sharded") || strings.Contains(n, "best SubmitBatch") {
			t.Errorf("unpaired sweep note survived: %q", n)
		}
		if strings.HasPrefix(n, "adaptive: static") && !strings.Contains(n, "rounds") {
			t.Errorf("adaptive arm note carries no spread: %q", n)
		}
	}
}

// The locality scenario must run one cell per window (off and on by
// default), execute every task in each, and honour an explicit Windows
// sweep.
func TestLocalityScenarioCells(t *testing.T) {
	cfg := smallConfig()
	cfg.Scenarios = []string{ScenarioLocality}
	cfg.Tasks = 300
	pts, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2; len(pts) != want { // 2 modes × 2 default windows
		t.Fatalf("got %d points, want %d", len(pts), want)
	}
	windows := map[int]bool{}
	for _, p := range pts {
		windows[p.Window] = true
		if p.Executed != uint64(cfg.Tasks) {
			t.Errorf("locality window=%d %s: executed %d, want %d", p.Window, p.Mode, p.Executed, cfg.Tasks)
		}
		if p.NsPerTask <= 0 {
			t.Errorf("locality window=%d %s: non-positive ns/task", p.Window, p.Mode)
		}
	}
	if !windows[-1] || !windows[0] {
		t.Fatalf("default sweep missing the off/on cells: %v", windows)
	}

	cfg.Windows = []int{4}
	pts, err = Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 { // 2 modes × 1 explicit window
		t.Fatalf("explicit window sweep: got %d points, want 2", len(pts))
	}
	for _, p := range pts {
		if p.Window != 4 {
			t.Errorf("explicit window sweep ran window %d, want 4", p.Window)
		}
	}
}

// The adaptive scenario must produce one cell per arm (three static, one
// adaptive), execute every task in each, report on every static arm its own
// paired static÷adaptive ratio with a spread, and on the adaptive arm the
// controller's decision count and no ratio.
func TestAdaptiveScenarioCells(t *testing.T) {
	cfg := smallConfig()
	cfg.Scenarios = []string{ScenarioAdaptive}
	cfg.Tasks = 400
	cfg.Workers = 4
	pts, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 * 2; len(pts) != want { // 4 arms × 2 modes
		t.Fatalf("got %d points, want %d", len(pts), want)
	}
	arms := map[string]bool{}
	for _, p := range pts {
		arms[p.Scheduler] = true
		if p.Executed != uint64(cfg.Tasks) {
			t.Errorf("adaptive/%s %s: executed %d, want %d", p.Scheduler, p.Mode, p.Executed, cfg.Tasks)
		}
		if p.Scheduler == "adaptive" {
			if p.Ratio != (PairedRatio{}) {
				t.Errorf("adaptive arm (%s mode) carries a ratio against itself: %+v", p.Mode, p.Ratio)
			}
			if p.AdaptiveDecisions == 0 {
				t.Errorf("adaptive arm (%s mode) applied no policy decisions", p.Mode)
			}
		} else {
			if p.Ratio.Median <= 0 || p.Ratio.Rounds == 0 {
				t.Errorf("static arm %s (%s mode) missing its own paired ratio: %+v", p.Scheduler, p.Mode, p.Ratio)
			}
			if p.AdaptiveDecisions != 0 {
				t.Errorf("static arm %s (%s mode) counts %d controller decisions", p.Scheduler, p.Mode, p.AdaptiveDecisions)
			}
		}
	}
	for _, a := range []string{"worksteal", "worksteal-nolocal", "cats", "adaptive"} {
		if !arms[a] {
			t.Fatalf("run missing arm %q: %v", a, arms)
		}
	}
	// Each static arm's verdict reaches the report under its own key.
	res, err := experiment{}.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []string{"worksteal", "worksteal_nolocal", "cats"} {
		for _, k := range []string{"adaptive_" + a + "_single_ratio", "adaptive_" + a + "_batch_ratio_iqr"} {
			if _, ok := res.Metrics[k]; !ok {
				t.Errorf("metric %q missing from %v", k, res.Metrics)
			}
		}
	}
}

// The hetero scenario must execute every task on every scheduler, and
// cats must keep the critical chain on the fast class — well above the
// fast class's 1/3 share of the pool, which is all a class-blind
// scheduler can promise.
func TestHeteroScenarioPlacement(t *testing.T) {
	cfg := smallConfig()
	cfg.Scenarios = []string{ScenarioHetero}
	cfg.Schedulers = []string{"cats", "fifo"}
	cfg.Tasks = 400
	cfg.Workers = 3
	cfg.FastWorkers = 1
	cfg.Grain = 512
	pts, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 * 2 * 2; len(pts) != want { // 2 schedulers × 2 modes
		t.Fatalf("got %d points, want %d", len(pts), want)
	}
	for _, p := range pts {
		if p.Executed != uint64(cfg.Tasks) {
			t.Errorf("hetero/%s %s: executed %d, want %d", p.Scheduler, p.Mode, p.Executed, cfg.Tasks)
		}
		if p.CritOnFast < 0 || p.CritOnFast > 1 {
			t.Errorf("hetero/%s %s: CritOnFast %v out of range", p.Scheduler, p.Mode, p.CritOnFast)
		}
		if p.Scheduler == "cats" && p.CritOnFast < 0.6 {
			t.Errorf("hetero/cats %s: only %.0f%% of the chain on the fast class",
				p.Mode, p.CritOnFast*100)
		}
	}
}

// The hetero pool must always total Workers, whatever FastWorkers asks
// for, and the configured knobs must not be silently ignored.
func TestHeteroPoolResolution(t *testing.T) {
	cases := []struct {
		workers, fastIn int
		factorIn        float64
		fast, slow      int
		factor          float64
	}{
		{workers: 8, fastIn: 0, factorIn: 0, fast: 2, slow: 6, factor: 4},
		{workers: 8, fastIn: 3, factorIn: 2.5, fast: 3, slow: 5, factor: 2.5},
		{workers: 4, fastIn: 8, factorIn: 0, fast: 3, slow: 1, factor: 4}, // clamped, pool still 4
		{workers: 2, fastIn: 0, factorIn: 0, fast: 1, slow: 1, factor: 4},
		{workers: 1, fastIn: 5, factorIn: 0, fast: 1, slow: 0, factor: 4}, // degenerate: fast only
	}
	for _, tc := range cases {
		fast, slow, factor := heteroPool(Config{Workers: tc.workers, FastWorkers: tc.fastIn, SlowFactor: tc.factorIn})
		if fast != tc.fast || slow != tc.slow || factor != tc.factor {
			t.Errorf("heteroPool(workers=%d fast=%d factor=%v) = (%d, %d, %v), want (%d, %d, %v)",
				tc.workers, tc.fastIn, tc.factorIn, fast, slow, factor, tc.fast, tc.slow, tc.factor)
		}
		if tc.workers > 1 && fast+slow != tc.workers {
			t.Errorf("pool size %d != configured %d", fast+slow, tc.workers)
		}
	}
}

// A hetero task count that does not divide into chain groups must still
// execute exactly Tasks tasks (the last group absorbs the remainder), and
// tiny counts must not underflow the fan arithmetic.
func TestHeteroScenarioRaggedCounts(t *testing.T) {
	for _, tasks := range []int{1, 3, 8, 9, 501} {
		cfg := smallConfig()
		cfg.Scenarios = []string{ScenarioHetero}
		cfg.Tasks = tasks
		pts, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pts {
			if p.Executed != uint64(tasks) {
				t.Errorf("hetero tasks=%d %s: executed %d", tasks, p.Mode, p.Executed)
			}
		}
	}
}

// The chaos scenario must produce a clean and a faulty point per cell;
// the faulty one carries the overhead and survival verdicts, the clean
// one executes every task.
func TestChaosScenarioCells(t *testing.T) {
	cfg := smallConfig()
	cfg.Scenarios = []string{ScenarioChaos}
	cfg.Tasks = 600
	pts, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2; len(pts) != want { // 2 modes × (clean, faulty)
		t.Fatalf("got %d points, want %d", len(pts), want)
	}
	for _, p := range pts {
		if !p.Faulty {
			if p.Executed != uint64(cfg.Tasks) {
				t.Errorf("clean arm %s: executed %d, want %d", p.Mode, p.Executed, cfg.Tasks)
			}
			if p.Ratio != (PairedRatio{}) || p.ChaosSurvival != 0 {
				t.Errorf("clean arm %s carries faulty-arm verdicts: %+v", p.Mode, p)
			}
			continue
		}
		if p.ChaosSurvival != 1 {
			t.Errorf("faulty arm %s: survival %v, want 1 (all tasks terminal)", p.Mode, p.ChaosSurvival)
		}
		if p.Ratio.Median <= 0 {
			t.Errorf("faulty arm %s: no overhead ratio measured", p.Mode)
		}
		if p.Executed > uint64(cfg.Tasks) {
			t.Errorf("faulty arm %s: executed %d over the %d submitted", p.Mode, p.Executed, cfg.Tasks)
		}
	}
}
