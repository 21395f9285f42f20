//go:build linux

package main

import (
	"context"
	"sync/atomic"

	"repro/internal/runtime"
)

// rtInflight is the closed loop's depth: the one submitter keeps this many
// graphs outstanding. 8 × 64 tasks stays far below the queue bound, so a
// spawn-tree root submitting from inside a worker can never block on it.
const rtInflight = 8

// rtQueueBound is the pool's WithQueueBound.
const rtQueueBound = 2048

// rtGrainNs is the private work every in-process task body does beside its
// oracle check: a busy wait of 8 µs of wall-clock time, about seven times
// the runtime's own cost per task. Without a grain the run is nothing but
// traffic between the two vCPUs' caches and thread wake-ups, and the host's
// regimes (which last minutes and move that cost by 40–90 %) put the
// run-to-run spread beyond any bound the benchmark may set; with a grain
// this size a regime that doubles the runtime's share moves the totals by
// about a tenth. The per-layer numbers in ns/task are not diluted by it. See
// README, "Sizing and spread".
const rtGrainNs = 8000

// rtSLONs is the latency limit behind slo_ok_frac.
func rtSLONs(workload string) int64 {
	if workload == wlDeps {
		return 2e6
	}
	return 5e6
}

// cell is one dependence key's version counter, alone on its cache line.
// Writers increment it without atomics: the runtime's ordering is what
// makes that safe, and what the oracle checks.
type cell struct {
	v uint64
	_ [56]byte
}

// oracleOp is one dependence of a task as the oracle sees it: the cell
// must hold expect (computed from program order when the graph was
// filled); a writer then increments it.
type oracleOp struct {
	c      *uint64
	expect uint64
	write  bool
}

// rtArm is one configuration of the in-process pool: the workload's own
// (the zero arm) or an ablation arm of the traced run.
type rtArm struct {
	name string
	opts []runtime.Option
	// noDeps strips every dependence (and with it the version oracle), to
	// price the tracker.
	noDeps bool
	retry  runtime.RetryPolicy
}

// rtSlot is one in-flight graph: its specs, closures and oracle operands
// are built once and refilled per graph, so the harness allocates nothing
// per graph and allocs_per_task is the runtime's own.
type rtSlot struct {
	run   *rtRun
	specs [rtMaxTasks]runtime.TaskSpec
	deps  [rtMaxTasks][2]runtime.Dep
	ops   [rtMaxTasks][2]oracleOp
	nops  [rtMaxTasks]uint8
	task  [rtMaxTasks]taskState
	n     int
	shape uint8
	spawn bool
	graph int64

	remaining atomic.Int32
	bad       atomic.Int32

	start, submitEnd, end int64
	// spawnSubmitNs times a spawn-tree root's own SubmitBatchCtx (traced
	// runs only).
	spawnSubmitNs int64
}

// taskState is what one task's body writes, alone on its cache line so
// that two workers running neighbouring tasks do not bounce it.
type taskState struct {
	// ran counts body executions; it must be exactly 1 when the graph's
	// last OnDone fires.
	ran  uint32
	sink uint64
	// start and end stamp the body in traced runs.
	start, end int64
	_          [32]byte
}

// rtRun is one pool plus the closed loop that drives it.
type rtRun struct {
	arm    rtArm
	rt     *runtime.Runtime
	graphs []graphT
	next   int
	seq    int64

	keys   [rtKeys]any
	cells  [rtKeys]cell
	writes [rtKeys]uint64
	free   chan *rtSlot
	preds  [len(shapes)][][]int

	// tr is nil except in a traced run.
	tr *tracer
	// submitNs and submitTasks total the SubmitBatchCtx wall time of a
	// traced window.
	submitNs, submitTasks int64
	waitTails             []float64

	win   window
	cur   *sliceStat
	sloNs int64
	problems
}

func newRTRun(cfg runConfig, graphs []graphT, arm rtArm, tr *tracer) *rtRun {
	opts := append([]runtime.Option{
		runtime.WithWorkers(cfg.workers),
		runtime.WithScheduler(runtime.WorkSteal),
		runtime.WithQueueBound(rtQueueBound),
	}, arm.opts...)
	r := &rtRun{
		arm: arm, graphs: graphs, tr: tr,
		rt:    runtime.New(opts...),
		free:  make(chan *rtSlot, rtInflight),
		sloNs: rtSLONs(cfg.workload),
	}
	for k := range r.keys {
		r.keys[k] = k // boxed once
	}
	for i := range shapes {
		r.preds[i] = refPreds(shapes[i].tasks)
	}
	for i := 0; i < rtInflight; i++ {
		s := &rtSlot{run: r}
		for t := range s.specs {
			t := t
			s.specs[t] = runtime.TaskSpec{
				Name:   "t",
				Cost:   1,
				Body:   func(ctx context.Context) error { return s.body(ctx, t) },
				OnDone: s.done,
				Retry:  arm.retry,
			}
		}
		r.free <- s
	}
	return r
}

// body is every task's body: the oracle check, and for a spawn-tree root
// the submission of its children with its own context.
func (s *rtSlot) body(ctx context.Context, t int) error {
	r := s.run
	var t0 int64
	if r.tr != nil {
		t0 = nowNs()
	}
	ts := &s.task[t]
	ts.ran++
	ts.sink += busyWait(rtGrainNs)
	for _, op := range s.ops[t][:s.nops[t]] {
		v := *op.c
		if v != op.expect {
			s.bad.Add(1)
		}
		if op.write {
			*op.c = v + 1
		}
	}
	if t == 0 && s.spawn {
		var c0 int64
		if r.tr != nil {
			c0 = nowNs()
		}
		if _, err := r.rt.SubmitBatchCtx(ctx, s.specs[1:s.n]); err != nil {
			s.bad.Add(1)
		}
		if r.tr != nil {
			s.spawnSubmitNs = nowNs() - c0
		}
	}
	if r.tr != nil {
		ts.start, ts.end = t0, nowNs()
	}
	return nil
}

// done is every task's OnDone; the last one of a graph stamps the end and
// returns the slot to the submitter. The channel holds every slot, so the
// send never blocks a worker.
func (s *rtSlot) done(err error) {
	if err != nil {
		s.bad.Add(1)
	}
	if s.remaining.Add(-1) == 0 {
		s.end = nowNs()
		s.run.free <- s
	}
}

// fill binds the next template to the slot: dependence annotations for
// the runtime, and for the oracle the version each task must find, which
// follows from program order alone — this submitter is the only one.
func (r *rtRun) fill(s *rtSlot) {
	g := &r.graphs[r.next]
	r.next = (r.next + 1) % len(r.graphs)
	sh := &shapes[g.shape]
	s.shape, s.spawn, s.n = g.shape, sh.spawn, len(sh.tasks)
	s.graph = r.seq
	r.seq++
	for t, deps := range sh.tasks {
		spec := &s.specs[t]
		if r.arm.noDeps {
			spec.Deps, s.nops[t] = nil, 0
			continue
		}
		for d, sd := range deps {
			k := g.keys[sd.slot]
			s.deps[t][d] = runtime.Dep{Key: r.keys[k], Mode: sd.mode}
			write := sd.mode != runtime.ModeIn
			s.ops[t][d] = oracleOp{c: &r.cells[k].v, expect: r.writes[k], write: write}
			if write {
				r.writes[k]++
			}
		}
		spec.Deps, s.nops[t] = s.deps[t][:len(deps)], uint8(len(deps))
	}
	s.remaining.Store(int32(s.n))
}

// submitNext takes a free slot (blocking while rtInflight graphs are
// out), accounts the graph that last used it, and submits the next one.
func (r *rtRun) submitNext() {
	s := <-r.free
	r.reap(s)
	r.fill(s)
	first := s.n
	if s.spawn {
		first = 1
	}
	s.start = nowNs()
	_, err := r.rt.SubmitBatchCtx(context.Background(), s.specs[:first])
	s.submitEnd = nowNs()
	if err != nil {
		r.problem("graph %d: SubmitBatchCtx: %v", s.graph, err)
		// Nothing was submitted, so no OnDone will return the slot.
		s.bad.Add(1)
		s.end = s.submitEnd
		s.remaining.Store(0)
		r.free <- s
	}
}

// reap accounts a finished graph: the per-graph oracle, then its
// latencies into the current slice.
func (r *rtRun) reap(s *rtSlot) {
	if s.n == 0 {
		return
	}
	n := s.n
	s.n = 0
	ok := s.bad.Swap(0) == 0
	if !ok {
		r.problem("graph %d (%s): version or error oracle failed", s.graph, shapes[s.shape].name)
	}
	if s.remaining.Load() != 0 {
		ok = false
		r.problem("graph %d: slot returned with %d OnDone outstanding", s.graph, s.remaining.Load())
	}
	for t := 0; t < n; t++ {
		if s.task[t].ran != 1 {
			ok = false
			r.problem("graph %d task %d: body ran %d times", s.graph, t, s.task[t].ran)
		}
		s.task[t].ran = 0
	}
	cur := r.cur
	if cur == nil {
		return // warm-up: judged (a failure is a problem), not counted
	}
	r.win.attempted++
	if !ok {
		r.win.failed++
	}
	lat := s.end - s.start
	cur.graph.record(lat)
	cur.submit.record(s.submitEnd - s.start)
	if ok {
		cur.tasks += int64(n)
		if lat <= r.sloNs {
			r.win.sloOK++
		}
	}
	if r.tr != nil {
		r.traceGraph(s, n)
	}
}

// traceGraph turns a finished graph's stamps into layer observations and,
// for the graphs the tracer keeps, spans.
func (r *rtRun) traceGraph(s *rtSlot, n int) {
	firstStart, lastEnd := s.task[0].start, s.task[0].end
	for t := 1; t < n; t++ {
		firstStart = min(firstStart, s.task[t].start)
		lastEnd = max(lastEnd, s.task[t].end)
	}
	r.submitNs += s.submitEnd - s.start
	if s.spawn {
		r.submitNs += s.spawnSubmitNs
	}
	r.submitTasks += int64(n)
	tr := r.tr
	tr.observe(spanQueue, firstStart-s.submitEnd)
	tr.observe(spanExec, lastEnd-firstStart)
	tr.observe(spanFinish, s.end-lastEnd)
	for t, preds := range r.preds[s.shape] {
		if len(preds) == 0 || r.arm.noDeps {
			continue
		}
		var ready int64
		for _, p := range preds {
			ready = max(ready, s.task[p].end)
		}
		tr.observe("runtime.release", s.task[t].start-ready)
	}
	if !tr.keeps(s.graph) {
		return
	}
	root := tr.add(spanGraph, s.start, s.end, -1, s.graph)
	tr.add(spanSubmit, s.start, s.submitEnd, root, s.graph)
	// A body can start before SubmitBatchCtx returns; the queue span then
	// has no length.
	tr.add(spanQueue, min(s.submitEnd, firstStart), firstStart, root, s.graph)
	exec := tr.add(spanExec, firstStart, lastEnd, root, s.graph)
	for t := int(s.graph % bodySampleEvery); t < n; t += bodySampleEvery {
		tr.add(spanBody, s.task[t].start, s.task[t].end, exec, s.graph)
	}
	tr.add(spanFinish, lastEnd, s.end, root, s.graph)
}

// drain waits for everything in flight, accounts it, and returns when the
// last OnDone fired and when Wait returned.
func (r *rtRun) drain() (lastDone, waitReturned int64) {
	r.rt.Wait()
	waitReturned = nowNs()
	// Nothing is outstanding, so every slot must be back.
	slots := make([]*rtSlot, 0, rtInflight)
	for len(r.free) > 0 {
		slots = append(slots, <-r.free)
	}
	if len(slots) < rtInflight {
		r.problem("a graph never delivered its last OnDone: %d of %d slots came back", len(slots), rtInflight)
		r.win.failed++
	}
	for _, s := range slots {
		if s.n > 0 {
			lastDone = max(lastDone, s.end)
		}
		r.reap(s)
		r.free <- s
	}
	return lastDone, waitReturned
}

// warm runs the closed loop unmeasured for ns of wall-clock time so the
// task freelist, the tracker's per-key state and the deques reach their
// steady footprint.
func (r *rtRun) warm(ns int64) {
	r.cur = nil
	for deadline := nowNs() + ns; nowNs() < deadline; {
		r.submitNext()
	}
	r.drain()
}

// slice measures one closed-loop slice of the window.
func (r *rtRun) slice(durNs int64) {
	r.win.slices = append(r.win.slices, sliceStat{})
	st := &r.win.slices[len(r.win.slices)-1]
	r.cur = st
	cpu0, allocs0, t0 := processCPU(), allocCount(), nowNs()
	for deadline := t0 + durNs; nowNs() < deadline; {
		r.submitNext()
	}
	lastDone, waitReturned := r.drain()
	st.durNs = waitReturned - t0
	st.cpuNs = processCPU() - cpu0
	st.allocs = allocCount() - allocs0
	r.cur = nil
	if lastDone > 0 {
		r.waitTails = append(r.waitTails, float64(waitReturned-lastDone)/1e3)
	}
	st.calib = calibrate()
}

// measure runs a window of the given length in slices.
func (r *rtRun) measure(windowNs int64, slices int) {
	for i := 0; i < slices; i++ {
		r.slice(windowNs / int64(slices))
	}
}

// finish runs the end-of-run oracles and shuts the pool down.
func (r *rtRun) finish() runtime.Stats {
	r.drain()
	st := r.rt.Stats()
	if st.Submitted != st.Executed {
		r.problem("Stats: Submitted %d != Executed %d", st.Submitted, st.Executed)
	}
	if st.Skipped != 0 {
		r.problem("Stats: Skipped %d, want 0", st.Skipped)
	}
	if err := r.rt.Err(); err != nil {
		r.problem("Runtime.Err: %v", err)
	}
	for k := range r.cells {
		if !r.arm.noDeps && r.cells[k].v != r.writes[k] {
			r.problem("key %d: final version %d, want its writer count %d", k, r.cells[k].v, r.writes[k])
		}
	}
	r.rt.Shutdown()
	return st
}

// setupRT generates the inputs, builds the pool and warms it.
func setupRT(cfg runConfig, arm rtArm, tr *tracer) *rtRun {
	r := newRTRun(cfg, genRTGraphs(cfg.workload, cfg.seed), arm, tr)
	r.warm(cfg.warmNs())
	return r
}

// runRT runs an in-process workload: the untraced window for the
// end-to-end metrics, or the traced sequence for the per-layer ones.
func runRT(cfg runConfig) *result {
	res := &result{cfg: cfg}
	var setups []float64
	var r *rtRun
	for rep := 0; rep < cfg.setupReps(); rep++ {
		if r != nil {
			r.finish()
		}
		t0 := nowNs()
		r = setupRT(cfg, rtArm{}, nil)
		setups = append(setups, float64(nowNs()-t0)/1e9)
	}
	if cfg.traced {
		res.layers = rtLayers(cfg, r, res)
	} else {
		r.measure(cfg.windowNs(), numSlices)
		r.finish()
		r.win.printSlices()
		res.e2e = r.win.e2e(setups)
	}
	res.absorb(r)
	return res
}

// absorb folds a finished run's counts and oracle failures into the
// result.
func (res *result) absorb(r *rtRun) {
	res.attempted += r.win.attempted
	res.failed += r.win.failed
	for _, p := range r.problems {
		if r.arm.name != "" {
			p = "arm " + r.arm.name + ": " + p
		}
		res.problem("%s", p)
	}
}
