package throughput

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/stats"
	"repro/raa"
)

type experiment struct{}

func init() { raa.Register(experiment{}) }

func (experiment) Name() string { return "throughput" }

func (experiment) Describe() string {
	return "Task-runtime verdict scenarios: criticality-aware placement on a heterogeneous pool, locality on/off, the adaptive controller vs static arms, and a fault load vs a clean run — tasks/sec per scenario, scheduler and submission mode, every ratio paired and reported with its spread"
}

func (experiment) Aliases() []string { return []string{"tput"} }

// Volatile: the headline metrics are wall-clock rates.
func (experiment) Volatile() bool { return true }

func (experiment) DefaultSpec() raa.Spec {
	return Config{Tasks: 40000, Workers: 8, Batch: 64, Grain: 32, Seed: 42}
}

func (experiment) QuickSpec() raa.Spec {
	return Config{Schedulers: []string{"worksteal"}, Tasks: 3000, Workers: 4, Batch: 64, Grain: 8, Seed: 42}
}

// verdictSuffix names the metric a paired scenario's Point.Ratio is reported
// under.
var verdictSuffix = map[string]string{
	ScenarioLocality: "_speedup", ScenarioAdaptive: "_ratio", ScenarioChaos: "_chaos_overhead",
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
		key := fmt.Sprintf("%s_%s_%s", raa.MetricKey(p.Scenario), raa.MetricKey(p.Scheduler), p.Mode)
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
		// whatever the scheduler and batching did.
		res.Metrics[key+"_executed"] = float64(p.Executed)
		switch p.Scenario {
		case ScenarioHetero:
			// The placement verdict: what fraction of the critical chain
			// ran on the fast worker class.
			res.Metrics[key+"_crit_on_fast"] = p.CritOnFast
		case ScenarioLocality, ScenarioAdaptive, ScenarioChaos:
			res.Metrics[key+"_ns_per_task"] = p.NsPerTask
		}
		if p.Ratio.Rounds > 0 {
			// The drift-cancelled verdict of a paired scenario's non-baseline
			// arm, median and spread: a locality-on cell's speedup over
			// locality-off, a static arm's static÷adaptive elapsed ratio
			// (> 1: the controller beat this static setting), the faulty
			// arm's overhead over the clean one.
			res.Metrics[key+verdictSuffix[p.Scenario]] = p.Ratio.Median
			res.Metrics[key+verdictSuffix[p.Scenario]+"_iqr"] = p.Ratio.IQR()
		}
		if p.AdaptiveDecisions > 0 {
			res.Metrics[key+"_decisions"] = float64(p.AdaptiveDecisions)
		}
		if p.Faulty {
			// The other half of the robustness verdict: whether every
			// submitted task reached exactly one terminal state (1.0 is the
			// only acceptable survival).
			res.Metrics[key+"_chaos_survival"] = p.ChaosSurvival
		}
	}
	res.Notes = summarize(pts)
	return res, nil
}

// Table renders the run: one row per cell — (scenario, scheduler, mode) and
// the scenario's paired-arm variant — with its rate in Ktasks/s.
func Table(pts []Point) *stats.Table {
	t := stats.NewTable("Scenario throughput", "scenario", "scheduler", "mode", "variant", "Ktasks/s")
	for _, p := range pts {
		t.AddRow(p.Scenario, p.Scheduler, p.Mode, variantLabel(p.Scenario, p.Window, p.Faulty),
			fmt.Sprintf("%.0f", p.TasksPerSec/1e3))
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

// summarize produces the headline notes: one block per scenario, each
// ratio as the paired driver's median with its quartiles.
func summarize(pts []Point) []string {
	notes := localityNotes(pts)
	notes = append(notes, heteroNotes(pts)...)
	notes = append(notes, adaptiveNotes(pts)...)
	return append(notes, chaosNotes(pts)...)
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
		if p.Ratio.Median > worst.Ratio.Median {
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

// adaptiveNotes summarises the adaptive scenario, one line per static arm
// and mode: that arm's elapsed time over the controller arm's (> 1 means
// the monitor→reason→adapt controller beat that static setting), then how
// many policy decisions the controller applied to get there.
func adaptiveNotes(pts []Point) []string {
	var notes []string
	for _, p := range pts {
		switch {
		case p.Scenario != ScenarioAdaptive:
		case p.Ratio.Rounds > 0:
			notes = append(notes, fmt.Sprintf("adaptive: static %s ÷ the adaptive controller: %v (%s mode)", p.Scheduler, p.Ratio, p.Mode))
		case p.AdaptiveDecisions > 0:
			notes = append(notes, fmt.Sprintf("adaptive: %d policy decisions applied (%s mode)", p.AdaptiveDecisions, p.Mode))
		}
	}
	return notes
}

// localityNotes summarises the locality scenario: the best locality-on
// cell's drift-cancelled speedup over its locality-off baseline, with the
// ns/task view.
func localityNotes(pts []Point) []string {
	var best Point
	for _, p := range pts {
		if p.Scenario == ScenarioLocality && p.Ratio.Median > best.Ratio.Median {
			best = p
		}
	}
	if best.Ratio.Rounds == 0 {
		return nil
	}
	return []string{fmt.Sprintf(
		"locality: worker-local successor placement vs the injector baseline: %v (%s/%s, %.0f ns/task)",
		best.Ratio, best.Scheduler, best.Mode, best.NsPerTask)}
}

// heteroNotes summarises the hetero scenario's placement story: per
// scheduler, the chain-on-fast fraction over its cells (min–max when the
// submission modes disagree).
func heteroNotes(pts []Point) []string {
	frac := map[string][]float64{}
	for _, p := range pts {
		if p.Scenario == ScenarioHetero {
			frac[p.Scheduler] = append(frac[p.Scheduler], p.CritOnFast)
		}
	}
	var notes []string
	for _, sched := range []string{"cats", "worksteal", "fifo"} {
		fs, ok := frac[sched]
		if !ok {
			continue
		}
		lo, hi := slices.Min(fs), slices.Max(fs)
		if lo == hi {
			notes = append(notes, fmt.Sprintf("hetero: %s ran %.0f%% of the critical chain on the fast class", sched, hi*100))
		} else {
			notes = append(notes, fmt.Sprintf("hetero: %s ran %.0f%%–%.0f%% of the critical chain on the fast class across cells", sched, lo*100, hi*100))
		}
	}
	return notes
}
