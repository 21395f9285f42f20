//go:build linux

package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/stats"
)

func TestHistQuantileTracksExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var h hist
	var exact []float64
	for i := 0; i < 200_000; i++ {
		v := int64(math.Exp(rng.NormFloat64()*1.5 + 11)) // log-normal round 60 µs
		h.record(v)
		exact = append(exact, float64(v))
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		got, want := h.quantile(q), stats.Percentile(exact, 100*q)
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("q=%g: hist %.1f, exact %.1f", q, got, want)
		}
	}
	// Small values are exact, the empty histogram is 0, negatives clamp.
	var small hist
	for _, v := range []int64{-5, 3, 3, 100} {
		small.record(v)
	}
	if got := small.quantile(0); got < 0 || got > 1 {
		t.Errorf("clamped minimum = %v, want within bucket 0", got)
	}
	if got := new(hist).quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) from Python 3.
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 9, 3, 7, 11}, 2.5, 9.5},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSummarizeIsMedianOfSlices(t *testing.T) {
	// One slice owned by a noisy neighbour must not own the number.
	s := summarize([]float64{100, 101, 99, 100, 5000, 102})
	if s.value != 100.5 || s.n != 6 {
		t.Errorf("summarize = %+v, want median 100.5 of 6", s)
	}
	if want := (1326.5 - 99.75) / 100.5; math.Abs(s.spread-want) > 1e-9 {
		t.Errorf("spread = %v, want %v", s.spread, want)
	}
	if got := summarize(nil); got.value != 0 || got.spread != 0 {
		t.Errorf("summarize(nil) = %+v", got)
	}
}

// inputsDigest hashes everything a workload generates from its seed.
func inputsDigest(workload string, seed uint64) [32]byte {
	h := sha256.New()
	if isServe(workload) {
		jobs := genJobs(workload, seed, 2, 1000, false)
		schedule(jobs, seed, workload, 3e9, numSlices)
		for _, j := range jobs {
			_ = binary.Write(h, binary.LittleEndian, []int64{int64(j.kind), int64(j.tenant), int64(j.lane), int64(j.tasks), j.due})
			h.Write(j.body)
		}
	} else {
		for _, g := range genRTGraphs(workload, seed) {
			_ = binary.Write(h, binary.LittleEndian, g.shape)
			_ = binary.Write(h, binary.LittleEndian, g.keys)
		}
	}
	return [32]byte(h.Sum(nil))
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloadNames {
		a, b, c := inputsDigest(w, 7), inputsDigest(w, 7), inputsDigest(w, 8)
		if a != b {
			t.Errorf("%s: the same seed generated different inputs", w)
		}
		if a == c {
			t.Errorf("%s: different seeds generated the same inputs", w)
		}
	}
}

func TestServeMixIsExactPerHundred(t *testing.T) {
	jobs := genJobs(wlOpen, 3, 2, 400, false)
	schedule(jobs, 3, wlOpen, 4e9, 4)
	var kinds [3]int
	var fails, armed int
	for i, j := range jobs {
		kinds[j.kind]++
		if j.fail {
			fails++
		}
		if j.armed {
			armed++
		}
		if i > 0 && i%100 != 0 && j.due < jobs[i-1].due {
			t.Fatalf("job %d is due before job %d", i, i-1)
		}
		if slice := int64(i / 100); j.due < slice*1e9 || j.due >= (slice+1)*1e9 {
			t.Fatalf("job %d due at %d ns, outside slice %d", i, j.due, slice)
		}
	}
	if kinds != [3]int{280, 80, 40} || fails != 8 || armed != 40 {
		t.Errorf("mix over 400 jobs: kinds %v, fail %d, armed %d; want [280 80 40], 8, 40", kinds, fails, armed)
	}
}

func TestRefPreds(t *testing.T) {
	preds := refPreds(shapes[shapeDeps16].tasks)
	// Task 4 (layer 1, key 0) writes key 0 and reads key 1: it follows both
	// layer-0 writers. Task 7 (layer 1, key 3) follows key 3's writer (3),
	// key 3's reader since (6), and the writer of the key 0 it reads (4).
	// Task 8 (layer 2, key 0) follows key 0's writer (4) and reader (7).
	for task, want := range map[int][]int{0: nil, 4: {0, 1}, 7: {3, 4, 6}, 8: {4, 7}} {
		if !reflect.DeepEqual(preds[task], want) {
			t.Errorf("deps16 task %d: preds %v, want %v", task, preds[task], want)
		}
	}
	fan := refPreds(shapes[shapeFan16].tasks)
	for r := 1; r < 16; r++ {
		if !reflect.DeepEqual(fan[r], []int{0}) {
			t.Errorf("fan16 reader %d: preds %v, want [0]", r, fan[r])
		}
	}
	if d := refPreds(jobShape(jobDiamond8)); !reflect.DeepEqual(d[7], []int{1, 2, 3, 4, 5, 6}) {
		t.Errorf("diamond8 sink: preds %v", d[7])
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "parent", Start: 0, End: 100, Parent: -1},
		{ID: 1, Name: "kid", Start: 10, End: 30, Parent: 0},
		{ID: 2, Name: "kid", Start: 20, End: 50, Parent: 0},  // overlaps the first
		{ID: 3, Name: "kid", Start: 90, End: 120, Parent: 0}, // runs past the parent
		{ID: 4, Name: "grandkid", Start: 12, End: 14, Parent: 1},
	}
	self := selfTimes(spans)
	if got := self["parent"]; got.TotalNs != 100 || got.SelfNs != 50 || got.Count != 1 {
		t.Errorf("parent = %+v, want total 100, self 50 (children cover 10–50 and 90–100)", got)
	}
	if got := self["kid"]; got.TotalNs != 80 || got.SelfNs != 78 || got.Count != 3 {
		t.Errorf("kid = %+v, want total 80, self 78", got)
	}
}

func TestBenchmarkJSONNamesTheHarnessMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Paths      []string `json:"paths"`
		RunSeconds float64  `json:"run_seconds"`
		Workloads  []struct{ Name string }
		EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, harness runs %v", names, workloadNames)
	}
	same := func(what string, file []struct{ Name, Unit string }, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the harness reports %d", what, len(file), len(defs))
			return
		}
		for i, d := range defs {
			if file[i].Name != d.name || file[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the harness reports %s (%s)",
					what, i, file[i].Name, file[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, e2eMetrics)
	same("per_layer", bf.PerLayer, layerMetrics)
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, the harness defaults to %v", bf.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(bf.Paths, []string{"benchmark"}) {
		t.Errorf("paths %v, want [benchmark]", bf.Paths)
	}
}

// smoke runs one workload briefly with every oracle on.
func smoke(t *testing.T, cfg runConfig) *result {
	t.Helper()
	cfg.workers, cfg.quick, cfg.seed = 2, true, 42
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	if !res.correct() || res.attempted == 0 {
		t.Fatalf("%s: attempted %d, failed %d, oracle: %v", cfg.workload, res.attempted, res.failed, res.problems)
	}
	return res
}

func TestQuickSmoke(t *testing.T) {
	for _, w := range workloadNames {
		res := smoke(t, runConfig{workload: w, seconds: 1})
		rep := res.report()
		for _, d := range e2eMetrics {
			if v, ok := rep.Metrics[d.name]; !ok || v.Value <= 0 || math.IsNaN(v.Value) || v.Unit != d.unit {
				t.Errorf("%s: %s = %+v, want a positive %s", w, d.name, v, d.unit)
			}
		}
		if len(rep.Metrics) != len(e2eMetrics) {
			t.Errorf("%s: %d metrics in the result line, want %d", w, len(rep.Metrics), len(e2eMetrics))
		}
	}
}

func TestQuickTracedSmoke(t *testing.T) {
	// One workload of each kind; every per-layer metric must be in the
	// result line, and the metrics that kind measures must be non-zero.
	nonZero := map[string][]string{
		wlFanout: {"runtime.submit.ns_per_task", "runtime.queue.us_p50", "runtime.finish.us_p50",
			"runtime.sched.fifo_ratio", "flightrec.events_per_task", "flightrec.record_ns",
			"verify.feed_ns_per_event", "host.calib_ns_per_kiter", "trace.overhead_ratio",
			"e2e.graph_p99_us", "e2e.submit_p90_us", "e2e.cpu_us_per_task"},
		wlOpen: {"serve.post.us_p50", "serve.handler.us_p50", "serve.job.admit_to_terminal_us_p50",
			"serve.job.exec_us_p50", "runtime.release.us_p50", "serve.admission.admit",
			"serve.metrics.scrape_us_p50", "serve.capacity.closed_jobs_per_s",
			"loadgen.cpu_s", "trace.overhead_ratio",
			"e2e.graph_p99_us", "e2e.submit_p90_us", "e2e.cpu_us_per_task"},
	}
	for w, want := range nonZero {
		dir := t.TempDir()
		res := smoke(t, runConfig{workload: w, seconds: 2, traced: true, outDir: dir})
		rep := res.report()
		if len(rep.Metrics) != len(layerMetrics) {
			t.Errorf("%s: %d metrics in the result line, want %d", w, len(rep.Metrics), len(layerMetrics))
		}
		for _, name := range want {
			if rep.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w, name, rep.Metrics[name].Value)
			}
		}
		if v := rep.Metrics["verify.violations"].Value; v != 0 {
			t.Errorf("%s: verify.violations = %v", w, v)
		}
		data, err := os.ReadFile(filepath.Join(dir, w+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, s := range tf.Spans {
			seen[s.Name] = true
			if s.End < s.Start || (s.Parent >= 0 && tf.Spans[s.Parent].Graph != s.Graph) {
				t.Fatalf("%s: bad span %+v", w, s)
			}
		}
		for _, name := range []string{spanGraph, spanQueue, spanExec, spanFinish} {
			if !seen[name] {
				t.Errorf("%s: no %s span in the trace", w, name)
			}
		}
	}
}
