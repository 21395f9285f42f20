//go:build linux

// Command benchmark is the repo's benchmark: four workloads that time a
// task graph from submit to terminal — two in-process against
// internal/runtime, two over loopback HTTP against internal/serve — with
// output oracles, and a traced mode that prices each layer from outside.
// See README.md in this directory for every metric and workload.
//
//	go run ./benchmark -workload rt-deps -seed 1            # end-to-end metrics
//	go run ./benchmark -workload rt-deps -seed 1 -trace 1   # per-layer metrics + spans
//	go run ./benchmark -all                                 # every workload, one process each
//	go run ./benchmark -aa                                  # A/A check against BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
)

// defaultSeconds is the measured window, matching BENCHMARK.json's
// run_seconds: seven 4 s slices.
const defaultSeconds = 28

var workloadWhy = map[string]string{
	wlDeps:     "in-process closed loop of 16-task braided InOut graphs with 8 us bodies: tracker, release and complete do the runtime's share",
	wlFanout:   "in-process closed loop of dep-free batches, fans and spawn trees with 8 us bodies: scheduler, wake-ups and locality do the runtime's share",
	wlOpen:     "open-loop HTTP at a sixth of the pool's capacity, 3.2 ms of body per job: what the service adds to a job that finds the pool free or one job ahead",
	wlOverload: "open-loop HTTP at 1.5× the sleep-bound capacity: the defer/reject ladder, lanes and quotas do the work",
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
		seed     = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Float64("seconds", defaultSeconds, "length of the measured window")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics and spans instead of end-to-end metrics")
		all      = flag.Bool("all", false, "run every workload, one fresh process each")
		aa       = flag.Bool("aa", false, "A/A check: run the full set twice in alternating order and compare against BENCHMARK.json's bounds")
		reps     = flag.Int("reps", 1, "with -aa: runs per workload and set, each with its own seed; medians are compared")
		quick    = flag.Bool("quick", false, "smoke run: short warm-up, one set-up")
		outDir   = flag.String("out", "benchmark/out", "directory a traced run writes its spans to")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf(2, "unexpected arguments: %v", flag.Args())
	}
	child := childArgs{seconds: *seconds, trace: *trace, quick: *quick, outDir: *outDir}
	switch {
	case *aa:
		os.Exit(runAA(child, *seed, *reps))
	case *all:
		os.Exit(runAll(child, *seed))
	}
	if !slices.Contains(workloadNames, *workload) {
		fatalf(2, "-workload must be one of %s", strings.Join(workloadNames, ", "))
	}
	if *seconds <= 0 {
		fatalf(2, "-seconds must be positive")
	}
	w := poolWorkers()
	if err := pinGOMAXPROCS(w); err != nil {
		fatalf(2, "%v", err)
	}
	cfg := runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, workers: w,
		traced: *trace != 0, quick: *quick, outDir: *outDir,
	}
	fmt.Printf("benchmark: workload=%s seed=%d seconds=%g trace=%d\n%s\n%s: %s\n",
		cfg.workload, cfg.seed, cfg.seconds, *trace, hostFingerprint(w), cfg.workload, workloadWhy[cfg.workload])
	res, err := run(cfg)
	if err != nil {
		fatalf(1, "%v", err)
	}
	res.print()
	if !res.correct() {
		os.Exit(1)
	}
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

// run runs one workload in this process.
func run(cfg runConfig) (*result, error) {
	if isServe(cfg.workload) {
		return runServe(cfg)
	}
	return runRT(cfg), nil
}

// reported is the last line of a run's standard output.
type reported struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]reportedValue `json:"metrics"`
}

type reportedValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report builds the run's result line: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func (r *result) report() reported {
	out := reported{
		Correct: r.correct(), Attempted: max(r.attempted, 1), Failed: r.failed,
		Metrics: map[string]reportedValue{},
	}
	if !out.Correct && out.Failed == 0 {
		out.Failed = 1 // an end-of-run oracle failed, not a single graph
	}
	if r.cfg.traced {
		for _, d := range layerMetrics {
			out.Metrics[d.name] = reportedValue{r.layers[d.name], d.unit}
		}
	} else {
		for _, d := range e2eMetrics {
			out.Metrics[d.name] = reportedValue{r.e2e[d.name].value, d.unit}
		}
	}
	return out
}

// print writes every metric by name with its unit — and, for a timing
// metric, the quartile spread of its per-slice values and how many slices
// there were — then the result line.
func (r *result) print() {
	if r.cfg.traced {
		fmt.Printf("\n%-40s %16s  %s\n", "per-layer metric", "value", "unit")
		for _, d := range layerMetrics {
			fmt.Printf("%-40s %16.4f  %s\n", d.name, r.layers[d.name], d.unit)
		}
	} else {
		fmt.Printf("\n%-20s %16s  %-5s %8s %3s\n", "end-to-end metric", "median", "unit", "spread", "n")
		for _, d := range e2eMetrics {
			s := r.e2e[d.name]
			fmt.Printf("%-20s %16.4f  %-5s %7.2f%% %3d\n", d.name, s.value, d.unit, 100*s.spread, s.n)
		}
	}
	for _, p := range r.problems {
		fmt.Printf("ORACLE: %s\n", p)
	}
	rep := r.report()
	fmt.Printf("\ncorrect=%v attempted=%d failed=%d\n", rep.Correct, rep.Attempted, rep.Failed)
	line, err := json.Marshal(rep)
	if err != nil {
		fatalf(1, "encoding the result: %v", err)
	}
	fmt.Printf("%s\n", line)
}
