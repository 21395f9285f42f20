//go:build linux

package main

import (
	"fmt"
	"runtime/metrics"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     uint64
	// seconds is the length of the measured window.
	seconds float64
	workers int
	traced  bool
	// quick shrinks warm-up and set-up repetitions for the smoke tests.
	quick bool
	// outDir is where a traced run writes its spans.
	outDir string
}

const numSlices = 7

// setupReps is how many times a run sets up (generate inputs, build the
// pool or server, warm up) to report the median as setup_s; the last
// set-up is the one that is measured.
func (c runConfig) setupReps() int {
	if c.quick {
		return 1
	}
	return 5
}

// warmNs is how long every set-up warms up for. It is a time, not a count
// of graphs or jobs: warm-up is the part of setup_s the host's regimes move,
// and a fixed time keeps set-up comparable between two sets of runs while
// work a later change moves into input generation or construction still
// shows on top of it.
func (c runConfig) warmNs() int64 {
	if c.quick {
		return 20e6
	}
	return 250e6
}

func (c runConfig) windowNs() int64 { return int64(c.seconds * 1e9) }

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are the end-to-end metrics every workload reports from an
// untraced run; BENCHMARK.json carries the same list with bounds.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"tasks_per_s", "1/s"},
	{"graph_p50_us", "us"},
	{"graph_p90_us", "us"},
	{"allocs_per_task", "1"},
	{"peak_rss_mb", "MiB"},
	{"ok_frac", "1"},
	{"admitted_frac", "1"},
	{"slo_ok_frac", "1"},
}

// layerMetrics are the per-layer metrics a traced run reports. A metric
// that does not apply to the traced workload (serve.* on rt-*, the
// ablation arms on serve-*) is reported as 0.
var layerMetrics = []metricDef{
	{"runtime.submit.ns_per_task", "ns"},
	{"runtime.tracker.ns_per_task", "ns"},
	{"runtime.tracker.shards1_ratio", "1"},
	{"runtime.queue.us_p50", "us"},
	{"runtime.queue.us_p90", "us"},
	{"runtime.release.us_p50", "us"},
	{"runtime.finish.us_p50", "us"},
	{"runtime.wait_tail_us", "us"},
	{"runtime.sched.steals_per_ktask", "1"},
	{"runtime.worker.imbalance", "1"},
	{"runtime.sched.fifo_ratio", "1"},
	{"runtime.sched.cats_ratio", "1"},
	{"runtime.locality.off_ratio", "1"},
	{"runtime.fault.armed_ns_per_task", "ns"},
	{"runtime.fault.retries", "count"},
	{"runtime.fault.deadline_misses", "count"},
	{"runtime.fault.panics", "count"},
	{"runtime.stats.statsinto_ns", "ns"},
	{"runtime.adaptive.on_ratio", "1"},
	{"runtime.adaptive.decisions", "count"},
	{"flightrec.overhead_ratio", "1"},
	{"flightrec.events_per_task", "1"},
	{"flightrec.record_ns", "ns"},
	{"flightrec.collect_ns_per_event", "ns"},
	{"verify.feed_ns_per_event", "ns"},
	{"verify.violations", "count"},
	{"serve.post.us_p50", "us"},
	{"serve.post.us_p90", "us"},
	{"serve.handler.us_p50", "us"},
	{"serve.transport.us_p50", "us"},
	{"serve.job.admit_to_terminal_us_p50", "us"},
	{"serve.job.admit_to_terminal_us_p90", "us"},
	{"serve.job.send_to_start_us_p50", "us"},
	{"serve.job.exec_us_p50", "us"},
	{"serve.lane.control.p90_us", "us"},
	{"serve.lane.data.p90_us", "us"},
	{"serve.lane.telemetry.p90_us", "us"},
	{"serve.lane.control.shed_frac", "1"},
	{"serve.lane.data.shed_frac", "1"},
	{"serve.lane.telemetry.shed_frac", "1"},
	{"serve.tenant.greedy_shed_frac", "1"},
	{"serve.tenant.light_shed_frac", "1"},
	{"serve.admission.admit", "count"},
	{"serve.admission.defer", "count"},
	{"serve.admission.reject", "count"},
	{"serve.queue.depth_max", "count"},
	{"serve.queue.backpressured_frac", "1"},
	{"serve.metrics.scrape_us_p50", "us"},
	{"serve.capacity.closed_jobs_per_s", "1/s"},
	{"loadgen.late_p50_us", "us"},
	{"loadgen.late_p99_us", "us"},
	{"loadgen.cpu_s", "s"},
	{"gort.gc_pause_ms", "ms"},
	{"gort.gc_cycles", "count"},
	{"gort.heap_peak_mb", "MiB"},
	{"host.calib_ns_per_kiter", "ns"},
	{"e2e.graph_p99_us", "us"},
	{"e2e.submit_p90_us", "us"},
	{"e2e.cpu_us_per_task", "us"},
	{"trace.overhead_ratio", "1"},
}

// result is what one run reports.
type result struct {
	cfg       runConfig
	attempted int64
	// failed counts graphs with a wrong outcome: transport error,
	// unexpected status or terminal state, lost job, oracle mismatch.
	failed int64
	problems
	e2e    map[string]summary
	layers map[string]float64
}

// problems keeps the first few oracle failures of a run, for the human
// output; any entry makes the run incorrect.
type problems []string

const maxProblems = 8

func (p *problems) problem(format string, args ...any) {
	if len(*p) < maxProblems {
		*p = append(*p, fmt.Sprintf(format, args...))
	}
}

// correct reports whether every oracle held.
func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// sliceStat is one measured slice of the window.
type sliceStat struct {
	durNs int64
	// tasks counts task bodies completed in graphs that reached their
	// expected terminal state.
	tasks int64
	// cpuNs is process CPU less the load generator's and collector's
	// threads.
	cpuNs  int64
	allocs uint64
	graph  hist
	submit hist
	calib  float64
}

// window is what a measured window yields, whichever loop drove it.
type window struct {
	slices    []sliceStat
	attempted int64
	failed    int64
	shed      int64
	sloOK     int64
}

// graphAll and submitAll merge the slices' latency histograms.
func (w *window) graphAll() *hist {
	all := new(hist)
	for i := range w.slices {
		all.merge(&w.slices[i].graph)
	}
	return all
}

func (w *window) submitAll() *hist {
	all := new(hist)
	for i := range w.slices {
		all.merge(&w.slices[i].submit)
	}
	return all
}

// ungated fills the end-to-end numbers that are too unsteady on a shared
// host to carry a bound; a traced run reports them from its untraced
// reference window.
func (w *window) ungated(layers map[string]float64) {
	layers["e2e.graph_p99_us"] = w.graphAll().quantile(0.99) / 1e3
	layers["e2e.submit_p90_us"] = w.submitAll().quantile(0.9) / 1e3
	layers["e2e.cpu_us_per_task"] = w.cpuPerTask() / 1e3
}

func (w *window) tasks() (n int64) {
	for i := range w.slices {
		n += w.slices[i].tasks
	}
	return n
}

func (w *window) durNs() (n int64) {
	for i := range w.slices {
		n += w.slices[i].durNs
	}
	return n
}

// nsPerTask is wall time per completed task over the whole window.
func (w *window) nsPerTask() float64 {
	if t := w.tasks(); t > 0 {
		return float64(w.durNs()) / float64(t)
	}
	return 0
}

// cpuPerTask is CPU time per completed task over the whole window.
func (w *window) cpuPerTask() float64 {
	var cpu int64
	for i := range w.slices {
		cpu += w.slices[i].cpuNs
	}
	if t := w.tasks(); t > 0 {
		return float64(cpu) / float64(t)
	}
	return 0
}

func (w *window) calibs() []float64 {
	var c []float64
	for i := range w.slices {
		c = append(c, w.slices[i].calib)
	}
	return c
}

// printSlices lists the per-slice values the medians are taken over, with
// the host canary beside them.
func (w *window) printSlices() {
	fmt.Printf("\n%-5s %8s %14s %12s %12s %14s %10s %12s\n",
		"slice", "dur s", "tasks/s", "p50 us", "p90 us", "submit p90 us", "cpu us/t", "calib ns/ki")
	for i := range w.slices {
		s := &w.slices[i]
		tasks := float64(max(s.tasks, 1))
		fmt.Printf("%-5d %8.3f %14.1f %12.2f %12.2f %14.2f %10.3f %12.1f\n", i, float64(s.durNs)/1e9,
			tasks/(float64(s.durNs)/1e9), s.graph.quantile(0.5)/1e3, s.graph.quantile(0.9)/1e3,
			s.submit.quantile(0.9)/1e3, float64(s.cpuNs)/tasks/1e3, s.calib)
	}
}

// e2e turns a window into the end-to-end metrics: each timing metric is
// the median of its per-slice values, each fraction is over the window.
func (w *window) e2e(setups []float64) map[string]summary {
	per := map[string][]float64{}
	for i := range w.slices {
		s := &w.slices[i]
		tasks := float64(s.tasks)
		if tasks == 0 || s.durNs == 0 {
			continue
		}
		per["tasks_per_s"] = append(per["tasks_per_s"], tasks/(float64(s.durNs)/1e9))
		per["graph_p50_us"] = append(per["graph_p50_us"], s.graph.quantile(0.5)/1e3)
		per["graph_p90_us"] = append(per["graph_p90_us"], s.graph.quantile(0.9)/1e3)
		per["allocs_per_task"] = append(per["allocs_per_task"], float64(s.allocs)/tasks)
	}
	out := map[string]summary{}
	for name, vals := range per {
		out[name] = summarize(vals)
	}
	frac := func(n int64) summary {
		if w.attempted == 0 {
			return summary{n: 1}
		}
		return summary{value: float64(n) / float64(w.attempted), n: 1}
	}
	out["setup_s"] = summarize(setups)
	out["peak_rss_mb"] = summary{value: peakRSSMiB(), n: 1}
	out["ok_frac"] = frac(w.attempted - w.failed)
	out["admitted_frac"] = frac(w.attempted - w.shed)
	out["slo_ok_frac"] = frac(w.sloOK)
	return out
}

// allocCount is the process's cumulative heap allocation count, read
// without stopping the world.
func allocCount() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		return s[0].Value.Uint64()
	}
	return 0
}
