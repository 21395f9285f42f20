package throughput

import (
	"context"
	"fmt"

	"repro/internal/stats"
	"repro/raa"
)

type experiment struct{}

func init() { raa.Register(experiment{}) }

func (experiment) Name() string { return "throughput" }

func (experiment) Describe() string {
	return "Submit- and dispatch-path throughput plus criticality-aware placement on a heterogeneous pool: tasks/sec per scenario, scheduler, tracker shard count, and submission mode"
}

func (experiment) Aliases() []string { return []string{"tput"} }

// Volatile: the headline metrics are wall-clock rates.
func (experiment) Volatile() bool { return true }

func (experiment) DefaultSpec() raa.Spec {
	return Config{
		Shards:    []int{1, 4, 16, 64},
		Tasks:     40000,
		Workers:   8,
		Producers: 8,
		Batch:     64,
		Grain:     32,
		Keys:      256,
		Seed:      42,
	}
}

func (experiment) QuickSpec() raa.Spec {
	return Config{
		Schedulers: []string{"worksteal"},
		Shards:     []int{1, 8},
		Tasks:      3000,
		Workers:    4,
		Producers:  4,
		Batch:      64,
		Grain:      8,
		Keys:       64,
		Seed:       42,
	}
}

func (e experiment) Run(ctx context.Context, spec raa.Spec) (*raa.Result, error) {
	cfg, ok := spec.(Config)
	if !ok {
		return nil, fmt.Errorf("throughput: spec type %T, want throughput.Config", spec)
	}
	pts, err := Run(ctx, cfg)
	if err != nil {
		return nil, err
	}
	res := &raa.Result{
		Experiment: e.Name(),
		Spec:       cfg,
		Metrics:    map[string]float64{},
		Tables:     []*stats.Table{Table(pts)},
	}
	for _, p := range pts {
		key := fmt.Sprintf("%s_%s_%s_shards%d", raa.MetricKey(p.Scenario), raa.MetricKey(p.Scheduler), p.Mode, p.Shards)
		if p.Scenario == ScenarioLocality {
			// The window is the locality scenario's sweep axis; bake it
			// into the key so on/off cells don't collide.
			key += fmt.Sprintf("_win%d", p.Window)
		}
		if p.Scenario == ScenarioChaos {
			// The chaos scenario's axis is the fault schedule: clean is the
			// injector-free baseline, faulty the injected arm.
			if p.Faulty {
				key += "_faulty"
			} else {
				key += "_clean"
			}
		}
		res.Metrics[key+"_tasks_per_sec"] = p.TasksPerSec
		// Executed is deterministic: it must always equal the task count,
		// whatever the sharding and batching did.
		res.Metrics[key+"_executed"] = float64(p.Executed)
		switch p.Scenario {
		case ScenarioHetero:
			// The placement verdict: what fraction of the critical chain
			// ran on the fast worker class.
			res.Metrics[key+"_crit_on_fast"] = p.CritOnFast
		case ScenarioLocality, ScenarioAdaptive, ScenarioChaos:
			res.Metrics[key+"_ns_per_task"] = p.NsPerTask
		}
		if p.Speedup > 0 {
			// The drift-cancelled verdict of a paired scenario's non-baseline
			// arm: the median of per-round ratios against its baseline, and
			// its spread. On the adaptive arm it is the minimum over the
			// static arms — > 1 means the controller beat every one of them.
			res.Metrics[key+"_speedup"] = p.Speedup
			res.Metrics[key+"_speedup_iqr"] = p.Ratio.IQR()
		}
		if p.AdaptiveDecisions > 0 {
			res.Metrics[key+"_decisions"] = float64(p.AdaptiveDecisions)
		}
		if p.Faulty {
			// The robustness verdict pair: how much the fault schedule cost
			// (median of per-round faulty/clean elapsed ratios, and its
			// spread) and whether every submitted task reached exactly one
			// terminal state (1.0 is the only acceptable survival).
			res.Metrics[key+"_chaos_overhead"] = p.ChaosOverhead
			res.Metrics[key+"_chaos_overhead_iqr"] = p.Ratio.IQR()
			res.Metrics[key+"_chaos_survival"] = p.ChaosSurvival
		}
	}
	res.Notes = summarize(pts)
	return res, nil
}

// Table renders the sweep: one row per (scenario, scheduler, mode), one
// column per shard count, cells in Ktasks/s.
func Table(pts []Point) *stats.Table {
	var shardCols []int
	seen := map[int]bool{}
	for _, p := range pts {
		if !seen[p.Shards] {
			seen[p.Shards] = true
			shardCols = append(shardCols, p.Shards)
		}
	}
	headers := []string{"scenario", "scheduler", "mode", "variant"}
	for _, s := range shardCols {
		headers = append(headers, fmt.Sprintf("%d-shard", s))
	}
	t := stats.NewTable("Submit throughput (Ktasks/s)", headers...)
	type rowKey struct {
		scenario, sched, mode string
		window                int
		faulty                bool
	}
	cells := map[rowKey]map[int]float64{}
	var order []rowKey
	for _, p := range pts {
		k := rowKey{p.Scenario, p.Scheduler, p.Mode, p.Window, p.Faulty}
		if cells[k] == nil {
			cells[k] = map[int]float64{}
			order = append(order, k)
		}
		cells[k][p.Shards] = p.TasksPerSec
	}
	for _, k := range order {
		row := []string{k.scenario, k.sched, k.mode, variantLabel(k.scenario, k.window, k.faulty)}
		for _, s := range shardCols {
			if v, ok := cells[k][s]; ok {
				row = append(row, fmt.Sprintf("%.0f", v/1e3))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	return t
}

// variantLabel renders a table row's paired-measurement axis: the locality
// scenario sweeps the window ("def" is the runtime default, "off" the
// disabled central-injector baseline), the chaos scenario the fault
// schedule ("clean" is the injector-free baseline); other scenarios
// have no variant axis.
func variantLabel(scenario string, window int, faulty bool) string {
	switch scenario {
	case ScenarioChaos:
		if faulty {
			return "faulty"
		}
		return "clean"
	case ScenarioLocality:
		switch {
		case window < 0:
			return "off"
		case window == 0:
			return "def"
		default:
			return fmt.Sprintf("win%d", window)
		}
	default:
		return "-"
	}
}

// summarize produces the headline notes: per scenario, the best sharded
// speedup over the 1-shard baseline and the best batched speedup over
// per-task submission, at matched configurations.
func summarize(pts []Point) []string {
	type cfg struct {
		scenario, sched, mode string
		shards, window        int
		faulty                bool
	}
	rate := map[cfg]float64{}
	for _, p := range pts {
		rate[cfg{p.Scenario, p.Scheduler, p.Mode, p.Shards, p.Window, p.Faulty}] = p.TasksPerSec
	}
	shardGain := map[string]float64{}
	batchGain := map[string]float64{}
	for c, v := range rate {
		if c.shards > 1 {
			if base := rate[cfg{c.scenario, c.sched, c.mode, 1, c.window, c.faulty}]; base > 0 {
				if g := v / base; g > shardGain[c.scenario] {
					shardGain[c.scenario] = g
				}
			}
		}
		if c.mode == "batch" {
			if base := rate[cfg{c.scenario, c.sched, "single", c.shards, c.window, c.faulty}]; base > 0 {
				if g := v / base; g > batchGain[c.scenario] {
					batchGain[c.scenario] = g
				}
			}
		}
	}
	var notes []string
	for _, s := range Scenarios() {
		if g, ok := shardGain[s]; ok {
			notes = append(notes, fmt.Sprintf("%s: best sharded speedup over 1-shard baseline %.2fx", s, g))
		}
		if g, ok := batchGain[s]; ok {
			notes = append(notes, fmt.Sprintf("%s: best SubmitBatch speedup over per-task Submit %.2fx", s, g))
		}
	}
	notes = append(notes, localityNotes(pts)...)
	notes = append(notes, heteroNotes(pts)...)
	notes = append(notes, adaptiveNotes(pts)...)
	notes = append(notes, chaosNotes(pts)...)
	return notes
}

// chaosNotes summarises the chaos scenario: the worst (largest) per-cell
// overhead of running under the fault schedule, and whether every faulty
// cell kept full survival.
func chaosNotes(pts []Point) []string {
	var worst Point
	survival := 1.0
	seen := false
	for _, p := range pts {
		if p.Scenario != ScenarioChaos || !p.Faulty {
			continue
		}
		seen = true
		if p.ChaosOverhead > worst.ChaosOverhead {
			worst = p
		}
		if p.ChaosSurvival < survival {
			survival = p.ChaosSurvival
		}
	}
	if !seen {
		return nil
	}
	return []string{fmt.Sprintf(
		"chaos: survival %.3f across faulty cells; worst fault-load overhead vs the clean arm: %v (%s/%s)",
		survival, worst.Ratio, worst.Scheduler, worst.Mode)}
}

// bestSpeedup returns the scenario's non-baseline cell with the largest
// paired speedup; ok is false when the sweep holds none.
func bestSpeedup(pts []Point, scenario string) (best Point, ok bool) {
	for _, p := range pts {
		if p.Scenario == scenario && p.Speedup > best.Speedup {
			best = p
		}
	}
	return best, best.Speedup > 0
}

// adaptiveNotes summarises the adaptive scenario: the controller arm's
// worst-case advantage over the static arms (Point.Speedup is already the
// minimum over arms of the median per-round ratio) and how many policy
// decisions produced it.
func adaptiveNotes(pts []Point) []string {
	best, ok := bestSpeedup(pts, ScenarioAdaptive)
	if !ok {
		return nil
	}
	return []string{fmt.Sprintf(
		"adaptive: the monitor→reason→adapt controller vs the best static arm: %v (%s mode, %d decisions applied)",
		best.Ratio, best.Mode, best.AdaptiveDecisions)}
}

// localityNotes summarises the locality scenario: the best locality-on
// cell's drift-cancelled speedup over its locality-off baseline, with the
// ns/task view.
func localityNotes(pts []Point) []string {
	best, ok := bestSpeedup(pts, ScenarioLocality)
	if !ok {
		return nil
	}
	return []string{fmt.Sprintf(
		"locality: worker-local successor placement vs the injector baseline: %v (%s/%s, %.0f ns/task)",
		best.Ratio, best.Scheduler, best.Mode, best.NsPerTask)}
}

// heteroNotes summarises the hetero scenario's placement story: per
// scheduler, the chain-on-fast fraction over every sweep cell (min–max
// when cells disagree), and cats's best speedup over fifo at a matched
// (shards, mode) configuration.
func heteroNotes(pts []Point) []string {
	frac := map[string][]float64{}
	type cell struct {
		mode   string
		shards int
	}
	rate := map[string]map[cell]float64{}
	for _, p := range pts {
		if p.Scenario != ScenarioHetero {
			continue
		}
		frac[p.Scheduler] = append(frac[p.Scheduler], p.CritOnFast)
		if rate[p.Scheduler] == nil {
			rate[p.Scheduler] = map[cell]float64{}
		}
		rate[p.Scheduler][cell{p.Mode, p.Shards}] = p.TasksPerSec
	}
	if len(frac) == 0 {
		return nil
	}
	var notes []string
	for _, sched := range []string{"cats", "worksteal", "fifo"} {
		fs, ok := frac[sched]
		if !ok {
			continue
		}
		lo, hi := fs[0], fs[0]
		for _, f := range fs[1:] {
			if f < lo {
				lo = f
			}
			if f > hi {
				hi = f
			}
		}
		if lo == hi {
			notes = append(notes, fmt.Sprintf("hetero: %s ran %.0f%% of the critical chain on the fast class", sched, hi*100))
		} else {
			notes = append(notes, fmt.Sprintf("hetero: %s ran %.0f%%–%.0f%% of the critical chain on the fast class across cells", sched, lo*100, hi*100))
		}
	}
	best := 0.0
	for c, v := range rate["cats"] {
		if base := rate["fifo"][c]; base > 0 {
			if g := v / base; g > best {
				best = g
			}
		}
	}
	if best > 0 {
		notes = append(notes, fmt.Sprintf("hetero: best cats speedup over fifo at matched config %.2fx", best))
	}
	return notes
}
