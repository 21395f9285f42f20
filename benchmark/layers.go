//go:build linux

package main

import (
	"net/http"
	stdruntime "runtime"
	"sync"

	"repro/internal/flightrec"
	"repro/internal/flightrec/verify"
	"repro/internal/runtime"
)

// A traced run splits its --seconds between an untraced reference window
// (what trace.overhead_ratio is measured against), the traced window, and
// the rest: ablation arms in-process, the closed-loop capacity probe over
// HTTP.
const (
	refShare    = 0.15
	tracedShare = 0.30
	restShare   = 0.50
)

// rtKeepEvery and serveKeepEvery: spans are kept for one graph in this
// many (every graph feeds the layer histograms).
const (
	rtKeepEvery    = 64
	serveKeepEvery = 1
)

func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(layerMetrics))
	for _, d := range layerMetrics {
		m[d.name] = 0
	}
	return m
}

// gcProbe brackets a window with MemStats reads for the gort.* metrics.
type gcProbe struct {
	before   stdruntime.MemStats
	heapPeak uint64
}

func (g *gcProbe) start() { stdruntime.ReadMemStats(&g.before) }

// sample notes the heap in use now; call it at slice boundaries.
func (g *gcProbe) sample() stdruntime.MemStats {
	var ms stdruntime.MemStats
	stdruntime.ReadMemStats(&ms)
	g.heapPeak = max(g.heapPeak, ms.HeapInuse)
	return ms
}

func (g *gcProbe) into(layers map[string]float64) {
	ms := g.sample()
	layers["gort.gc_pause_ms"] = float64(ms.PauseTotalNs-g.before.PauseTotalNs) / 1e6
	layers["gort.gc_cycles"] = float64(ms.NumGC - g.before.NumGC)
	layers["gort.heap_peak_mb"] = float64(g.heapPeak) / (1 << 20)
}

// statsDelta fills the counter-derived runtime metrics from two Stats
// snapshots taken round the traced window.
func statsDelta(layers map[string]float64, before, after runtime.Stats) {
	executed := float64(after.Executed - before.Executed)
	if executed > 0 {
		layers["runtime.sched.steals_per_ktask"] = 1000 * float64(after.Steals-before.Steals) / executed
	}
	var most, sum float64
	for w := range after.PerWorker {
		d := float64(after.PerWorker[w])
		if w < len(before.PerWorker) {
			d -= float64(before.PerWorker[w])
		}
		most, sum = max(most, d), sum+d
	}
	if sum > 0 {
		layers["runtime.worker.imbalance"] = most / (sum / float64(len(after.PerWorker)))
	}
	layers["runtime.fault.retries"] = float64(after.Retries - before.Retries)
	layers["runtime.fault.deadline_misses"] = float64(after.DeadlineMisses - before.DeadlineMisses)
	layers["runtime.fault.panics"] = float64(after.Panics - before.Panics)
}

// timeStatsInto times StatsInto on a live, idle pool.
func timeStatsInto(rt *runtime.Runtime) float64 {
	const calls = 2000
	var buf runtime.Stats
	t0 := nowNs()
	for i := 0; i < calls; i++ {
		rt.StatsInto(&buf)
	}
	return float64(nowNs()-t0) / calls
}

// recorderMicro times the flight recorder's record and collect paths on a
// recorder of its own.
func recorderMicro(layers map[string]float64) {
	const records = 1_000_000
	rec := flightrec.New(1, flightrec.Options{})
	defer rec.Close()
	t0 := nowNs()
	for i := uint64(0); i < records; i++ {
		rec.RecordWorker(0, flightrec.KindDispatch, i, 0, 0)
	}
	layers["flightrec.record_ns"] = float64(nowNs()-t0) / records
	var buf []flightrec.Event
	var events int
	t0 = nowNs()
	for rep := 0; rep < 50; rep++ {
		var cur flightrec.Cursor
		buf, _ = rec.Collect(&cur, buf[:0])
		events += len(buf)
	}
	if events > 0 {
		layers["flightrec.collect_ns_per_event"] = float64(nowNs()-t0) / float64(events)
	}
}

// rtLayers is the traced sequence of an in-process workload. base is the
// already warmed untraced pool.
func rtLayers(cfg runConfig, base *rtRun, res *result) map[string]float64 {
	layers := zeroLayers()
	total := float64(cfg.windowNs())

	base.measure(int64(total*refShare), 2)
	base.finish()
	calibs := base.win.calibs()
	base.win.ungated(layers)

	tr := newTracer(rtKeepEvery)
	t := setupRT(cfg, rtArm{}, tr)
	var gc gcProbe
	gc.start()
	before := t.rt.Stats()
	for s := 0; s < 3; s++ {
		t.slice(int64(total * tracedShare / 3))
		gc.sample()
	}
	after := t.rt.Stats()
	gc.into(layers)
	layers["runtime.stats.statsinto_ns"] = timeStatsInto(t.rt)
	t.finish()
	res.absorb(t)
	calibs = append(calibs, t.win.calibs()...)
	statsDelta(layers, before, after)
	if t.submitTasks > 0 {
		layers["runtime.submit.ns_per_task"] = float64(t.submitNs) / float64(t.submitTasks)
	}
	layers["runtime.queue.us_p50"] = tr.us(spanQueue, 0.5)
	layers["runtime.queue.us_p90"] = tr.us(spanQueue, 0.9)
	layers["runtime.release.us_p50"] = tr.us("runtime.release", 0.5)
	layers["runtime.finish.us_p50"] = tr.us(spanFinish, 0.5)
	layers["runtime.wait_tail_us"] = median(t.waitTails)
	if ref := base.win.nsPerTask(); ref > 0 {
		layers["trace.overhead_ratio"] = t.win.nsPerTask() / ref
	}
	layers["host.calib_ns_per_kiter"] = median(calibs)
	tr.finish(cfg, res)

	rtArms(cfg, int64(total*restShare), layers, res)
	recorderMicro(layers)
	return layers
}

// rtArms prices what a span cannot by ablation, with public options only.
// Each arm runs twice between two runs of the workload's own
// configuration (B A A B A' A' B …), so every ratio compares an arm with
// the baselines either side of it.
func rtArms(cfg runConfig, budgetNs int64, layers map[string]float64, res *result) {
	arms := []rtArm{
		{name: "nodeps", noDeps: true},
		{name: "shards1", opts: []runtime.Option{runtime.WithShards(1)}},
		{name: "fifo", opts: []runtime.Option{runtime.WithScheduler(runtime.FIFO)}},
		{name: "cats", opts: []runtime.Option{runtime.WithScheduler(runtime.CATS)}},
		{name: "locality-off", opts: []runtime.Option{runtime.WithLocalityWindow(-1)}},
		{name: "fault-armed", retry: runtime.RetryPolicy{Max: 1}},
		{name: "adaptive", opts: []runtime.Option{runtime.WithAdaptive(runtime.AdaptiveOptions{})}},
		{name: "flightrec", opts: []runtime.Option{runtime.WithFlightRecorder(flightrec.Options{})}},
	}
	armCfg := cfg
	armCfg.quick = true // short warm-up: an arm is measured for a fraction of a second
	each := budgetNs / int64(3*len(arms)+1)
	run := func(a rtArm) (float64, runtime.Stats, *rtRun) {
		r := setupRT(armCfg, a, nil)
		r.slice(each)
		st := r.finish()
		res.absorb(r)
		return r.win.nsPerTask(), st, r
	}
	baseline, _, _ := run(rtArm{})
	for _, a := range arms {
		ns1, st1, _ := run(a)
		ns2, st2, last := run(a)
		next, _, _ := run(rtArm{})
		armNs, baseNs := (ns1+ns2)/2, (baseline+next)/2
		baseline = next
		if baseNs == 0 {
			continue
		}
		ratio := armNs / baseNs
		switch a.name {
		case "nodeps":
			layers["runtime.tracker.ns_per_task"] = baseNs - armNs
		case "shards1":
			layers["runtime.tracker.shards1_ratio"] = ratio
		case "fifo":
			layers["runtime.sched.fifo_ratio"] = ratio
		case "cats":
			layers["runtime.sched.cats_ratio"] = ratio
		case "locality-off":
			layers["runtime.locality.off_ratio"] = ratio
		case "fault-armed":
			layers["runtime.fault.armed_ns_per_task"] = armNs - baseNs
		case "adaptive":
			layers["runtime.adaptive.on_ratio"] = ratio
			layers["runtime.adaptive.decisions"] = float64(st1.Adaptive.Decisions + st2.Adaptive.Decisions)
		case "flightrec":
			layers["flightrec.overhead_ratio"] = ratio
			if st2.Executed > 0 {
				layers["flightrec.events_per_task"] = float64(st2.FlightEvents) / float64(st2.Executed)
			}
			feedVerifier(last.rt.FlightRecorder(), layers)
		}
	}
}

// feedVerifier runs the invariant checker over what the recorder arm left
// in its rings. The rings hold only the run's tail, so the feed is marked
// as following a gap and unknown tasks are tracked conservatively.
func feedVerifier(rec *flightrec.Recorder, layers map[string]float64) {
	if rec == nil {
		return
	}
	events := rec.Snapshot()
	if len(events) == 0 {
		return
	}
	chk := verify.New(verify.Options{})
	t0 := nowNs()
	chk.Feed(events, true)
	layers["verify.feed_ns_per_event"] = float64(nowNs()-t0) / float64(len(events))
	layers["verify.violations"] = float64(chk.Stats().Total)
}

// serveLayers is the traced sequence of a service workload.
func serveLayers(cfg runConfig, res *result) (map[string]float64, error) {
	layers := zeroLayers()
	total := float64(cfg.windowNs())

	refNs := int64(total * refShare)
	ref, err := setupServe(cfg, refNs, 1, nil)
	if err != nil {
		return layers, err
	}
	refWin := ref.measure(refNs, 1)
	ref.checkCounters()
	ref.teardown()
	res.absorbServe(ref, refWin)
	refWin.ungated(layers)

	// The capacity probe gives its share back to the traced window: an
	// open loop needs seconds, not fractions, to fill its percentiles.
	tracedNs := int64(total * (tracedShare + restShare - capacityShare))
	tr := newTracer(serveKeepEvery)
	t, err := setupServe(cfg, tracedNs, 3, tr)
	if err != nil {
		return layers, err
	}
	var gc gcProbe
	gc.start()
	before := t.srv.Runtime().Stats()
	w := t.measure(tracedNs, 3)
	after := t.srv.Runtime().Stats()
	gc.into(layers)
	layers["runtime.stats.statsinto_ns"] = timeStatsInto(t.srv.Runtime())
	t.checkCounters()
	t.teardown()
	res.absorbServe(t, w)
	statsDelta(layers, before, after)
	t.traceJobs(w, layers)
	// CPU per task, not latency: under overload latency grows with the
	// length of the window, and the two windows differ in length.
	if refCPU := refWin.cpuPerTask(); refCPU > 0 {
		layers["trace.overhead_ratio"] = w.cpuPerTask() / refCPU
	}
	layers["loadgen.late_p50_us"] = w.lateness.quantile(0.5) / 1e3
	layers["loadgen.late_p99_us"] = w.lateness.quantile(0.99) / 1e3
	layers["loadgen.cpu_s"] = float64(w.genCPUNs) / 1e9
	layers["host.calib_ns_per_kiter"] = median(append(refWin.calib, w.calib...))
	tr.finish(cfg, res)

	jobsPerS, err := closedCapacity(cfg, int64(total*capacityShare), res)
	layers["serve.capacity.closed_jobs_per_s"] = jobsPerS
	recorderMicro(layers)
	return layers, err
}

// capacityShare of a traced service run goes to the closed-loop probe.
const capacityShare = 0.15

// traceJobs turns the traced window's stamps into layer observations,
// spans, and the lane, tenant, admission and queue metrics.
func (r *serveRun) traceJobs(w *serveWindow, layers map[string]float64) {
	tr := r.tr
	var laneLat [len(laneNames)]hist
	var laneAll, laneShed [len(laneNames)]float64
	var tenantAll, tenantShed [len(tenantNames)]float64
	preds := map[uint8][][]int{}
	for i := r.warm; i < len(r.jobs); i++ {
		j, rec := &r.jobs[i], &r.recs[i]
		if r.judge(i) != "" {
			continue
		}
		laneAll[j.lane]++
		tenantAll[j.tenant]++
		if rec.code != http.StatusAccepted {
			laneShed[j.lane]++
			tenantShed[j.tenant]++
			tr.observe(spanPost, rec.acked-rec.sent)
			continue
		}
		laneLat[j.lane].record(rec.graphNs())
		hStart, hEnd := r.hStart[i].Load(), r.hEnd[i].Load()
		tr.observe(spanPost, rec.acked-rec.sent)
		tr.observe(spanHandler, hEnd-hStart)
		tr.observe("serve.transport", rec.acked-rec.sent-(hEnd-hStart))
		latNs := int64(rec.status.LatencyMS * 1e6)
		tr.observe("serve.job.admit_to_terminal", latNs)

		// Stamps exist for the tasks that ran a harness op; the fail op of
		// a planned failure has none.
		off := r.taskOff[i]
		var firstStart, lastEnd int64
		for t := 0; t < j.tasks; t++ {
			s, e := r.tStart[off+t].Load(), r.tEnd[off+t].Load()
			if s == 0 {
				continue
			}
			if firstStart == 0 || s < firstStart {
				firstStart = s
			}
			lastEnd = max(lastEnd, e)
		}
		if firstStart == 0 {
			continue
		}
		// The server stamps admission just before the handler returns.
		terminalAt := max(hEnd+latNs, lastEnd)
		tr.observe("serve.job.send_to_start", firstStart-rec.sent)
		tr.observe(spanQueue, firstStart-hEnd)
		tr.observe(spanExec, lastEnd-firstStart)
		tr.observe(spanFinish, terminalAt-lastEnd)
		p, ok := preds[j.kind]
		if !ok {
			p = refPreds(jobShape(j.kind))
			preds[j.kind] = p
		}
		for t, ps := range p {
			if len(ps) == 0 || r.tStart[off+t].Load() == 0 {
				continue
			}
			var ready int64
			for _, q := range ps {
				ready = max(ready, r.tEnd[off+q].Load())
			}
			tr.observe("runtime.release", r.tStart[off+t].Load()-ready)
		}
		if !tr.keeps(int64(i)) {
			continue
		}
		g := int64(i)
		root := tr.add(spanGraph, rec.due, terminalAt, -1, g)
		tr.add(spanWait, rec.due, rec.sent, root, g)
		post := tr.add(spanPost, rec.sent, rec.acked, root, g)
		tr.add(spanHandler, hStart, hEnd, post, g)
		tr.add(spanQueue, min(hEnd, firstStart), firstStart, root, g)
		exec := tr.add(spanExec, firstStart, lastEnd, root, g)
		for t := i % bodySampleEvery; t < j.tasks; t += bodySampleEvery {
			if s := r.tStart[off+t].Load(); s != 0 {
				tr.add(spanBody, s, r.tEnd[off+t].Load(), exec, g)
			}
		}
		tr.add(spanFinish, lastEnd, terminalAt, root, g)
	}
	layers["serve.post.us_p50"] = tr.us(spanPost, 0.5)
	layers["serve.post.us_p90"] = tr.us(spanPost, 0.9)
	layers["serve.handler.us_p50"] = tr.us(spanHandler, 0.5)
	layers["serve.transport.us_p50"] = tr.us("serve.transport", 0.5)
	layers["serve.job.admit_to_terminal_us_p50"] = tr.us("serve.job.admit_to_terminal", 0.5)
	layers["serve.job.admit_to_terminal_us_p90"] = tr.us("serve.job.admit_to_terminal", 0.9)
	layers["serve.job.send_to_start_us_p50"] = tr.us("serve.job.send_to_start", 0.5)
	layers["serve.job.exec_us_p50"] = tr.us(spanExec, 0.5)
	layers["runtime.queue.us_p50"] = tr.us(spanQueue, 0.5)
	layers["runtime.queue.us_p90"] = tr.us(spanQueue, 0.9)
	layers["runtime.release.us_p50"] = tr.us("runtime.release", 0.5)
	layers["runtime.finish.us_p50"] = tr.us(spanFinish, 0.5)
	frac := func(n, of float64) float64 {
		if of == 0 {
			return 0
		}
		return n / of
	}
	for l, name := range laneNames {
		layers["serve.lane."+name+".p90_us"] = laneLat[l].quantile(0.9) / 1e3
		layers["serve.lane."+name+".shed_frac"] = frac(laneShed[l], laneAll[l])
	}
	layers["serve.tenant.greedy_shed_frac"] = frac(tenantShed[0], tenantAll[0])
	layers["serve.tenant.light_shed_frac"] = frac(
		tenantShed[1]+tenantShed[2]+tenantShed[3], tenantAll[1]+tenantAll[2]+tenantAll[3])

	// Counters and gauges from the collector's scrapes.
	var depthMax, latched, gauges float64
	var scrapeDur hist
	for _, sc := range r.scrapes {
		scrapeDur.record(sc.durNs)
		for _, t := range tenantNames {
			depthMax = max(depthMax, sc.m[`raa_serve_tenant_queue_depth{tenant="`+t+`"}`])
			latched += sc.m[`raa_serve_tenant_backpressured{tenant="`+t+`"}`]
			gauges++
		}
	}
	layers["serve.metrics.scrape_us_p50"] = scrapeDur.quantile(0.5) / 1e3
	layers["serve.queue.depth_max"] = depthMax
	layers["serve.queue.backpressured_frac"] = frac(latched, gauges)
	if n := len(r.scrapes); n > 0 {
		last := r.scrapes[n-1].m
		layers["serve.admission.admit"] = last[`raa_serve_admission_total{verdict="admit"}`]
		layers["serve.admission.defer"] = last[`raa_serve_admission_total{verdict="defer"}`]
		layers["serve.admission.reject"] = last[`raa_serve_admission_total{verdict="reject"}`]
	}
}

// jobShape restates a job kind's dependences in the form refPreds reads.
func jobShape(kind uint8) [][]shapeDep {
	switch kind {
	case jobDiamond8:
		tasks := [][]shapeDep{{{slot: 0, mode: runtime.ModeOut}}}
		var joins []shapeDep
		for m := uint8(1); m <= 6; m++ {
			tasks = append(tasks, []shapeDep{{slot: 0, mode: runtime.ModeIn}, {slot: m, mode: runtime.ModeOut}})
			joins = append(joins, shapeDep{slot: m, mode: runtime.ModeIn})
		}
		return append(tasks, joins)
	case jobChain4:
		tasks := make([][]shapeDep, 4)
		for t := range tasks {
			tasks[t] = []shapeDep{{slot: 0, mode: runtime.ModeInOut}}
		}
		return tasks
	default:
		return make([][]shapeDep, 32)
	}
}

// closedCapacity is the rate ceiling behind the open loop: one closed-loop
// client per worker, each posting the workload's own mix and waiting for
// the terminal state before the next.
func closedCapacity(cfg runConfig, durNs int64, res *result) (float64, error) {
	probe := cfg
	probe.quick = true
	// Every client cycles through the same generated jobs from its own
	// offset; dues are not used.
	r, err := setupServe(probe, int64(1e9), 1, nil)
	if err != nil {
		return 0, err
	}
	clients := make([]*client, cfg.workers)
	for c := range clients {
		if clients[c], err = dialClient(r.addr, r.jobs, false); err != nil {
			for _, cl := range clients[:c] {
				cl.close()
			}
			r.teardown()
			return 0, err
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := nowNs()
	deadline := t0 + durNs
	for c, cl := range clients {
		wg.Add(1)
		go func(c int, cl *client) {
			defer wg.Done()
			defer cl.close()
			for i := r.warm + c; nowNs() < deadline; i += len(clients) {
				if i >= len(cl.jobs) {
					i = r.warm + c
				}
				cl.recs[i] = jobRec{}
				if cl.postJob(i) {
					cl.pollJob(i)
				}
				if why := cl.judge(i); why != "" || cl.recs[i].code != http.StatusAccepted {
					mu.Lock()
					res.problem("capacity probe job %d: status %d %s", i, cl.recs[i].code, why)
					mu.Unlock()
					return
				}
			}
		}(c, cl)
	}
	wg.Wait()
	elapsed := nowNs() - t0
	r.teardown()
	res.absorbServe(r, nil)
	var done int64
	for _, cl := range clients {
		done += cl.codes[http.StatusAccepted]
	}
	return float64(done) / (float64(elapsed) / 1e9), nil
}
