//go:build linux

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/serve"
)

const (
	// serveWarmJobs are generated ahead of the window's jobs; warm-up
	// cycles through them closed-loop for runConfig.warmNs.
	serveWarmJobs = 30
	// scrapeEveryNs is the collector's /metrics cadence.
	scrapeEveryNs = 1e9
	// windowLeadNs separates starting the loops from the first due time.
	windowLeadNs = 5e6
)

// jobRec is what the harness learns about one job from outside.
type jobRec struct {
	// due, sent, acked are on the harness clock; due is 0 for warm-up.
	due, sent, acked int64
	code             int
	id               string
	status           serve.JobStatus
	collected        bool
	err              string
}

// scrape is one GET /metrics.
type scrape struct {
	durNs int64
	m     map[string]float64
}

// client is one pair of keep-alive connections and what it learned about
// the jobs it sent: post carries the submissions, poll follows admitted
// jobs to their terminal state.
type client struct {
	jobs       []jobT
	recs       []jobRec
	post, poll *wire
	// codes counts the status codes seen, warm-up included; failAdmitted
	// counts the admitted jobs that were planned to fail.
	codes        map[int]int64
	failAdmitted int64
	// traced: requests say which job they are, for the wrapped handler.
	traced bool
}

func dialClient(addr string, jobs []jobT, traced bool) (*client, error) {
	c := &client{jobs: jobs, recs: make([]jobRec, len(jobs)), codes: map[int]int64{}, traced: traced}
	var err error
	if c.post, err = dialWire(addr); err != nil {
		return nil, err
	}
	if c.poll, err = dialWire(addr); err != nil {
		c.post.close()
		return nil, err
	}
	return c, nil
}

func (c *client) close() {
	c.post.close()
	c.poll.close()
}

// serveRun is one server on loopback plus the open loop that drives it:
// one generator connection, one collector connection.
type serveRun struct {
	cfg  runConfig
	spec serveSpec
	srv  *serve.Server
	hs   *http.Server
	// served is closed when hs.Serve returns.
	served chan struct{}
	addr   string

	// The client's jobs are the warm-up jobs first, then the scheduled
	// window.
	*client
	warm  int
	timer *dueTimer
	// ids carries admitted job indexes to the collector; it is buffered to
	// one entry per job so the generator never waits on it.
	ids            chan int
	genCPU, colCPU atomic.Int64
	scrapes        []scrape

	// Traced runs only: the harness ops and the wrapped handler stamp
	// these from server goroutines, hence atomics.
	tr           *tracer
	taskOff      []int
	tStart, tEnd []atomic.Int64
	hStart, hEnd []atomic.Int64

	problems
}

// setupServe generates the window's jobs, boots the server, connects and
// warms up.
func setupServe(cfg runConfig, windowNs int64, slices int, tr *tracer) (*serveRun, error) {
	spec := serveSpecOf(cfg.workload, cfg.workers)
	warm := serveWarmJobs
	n := int(float64(spec.rate) * float64(windowNs) / 1e9)
	jobs := genJobs(cfg.workload, cfg.seed, cfg.workers, warm+n, tr != nil)
	schedule(jobs[warm:], cfg.seed, cfg.workload, windowNs, slices)
	r := &serveRun{cfg: cfg, spec: spec, warm: warm, tr: tr, ids: make(chan int, len(jobs))}

	conf := spec.cfg
	conf.Ops = map[string]serve.Op{"bench.busy": busyOp}
	if tr != nil {
		total := 0
		r.taskOff = make([]int, len(jobs))
		for i := range jobs {
			r.taskOff[i] = total
			total += jobs[i].tasks
		}
		r.tStart, r.tEnd = make([]atomic.Int64, total), make([]atomic.Int64, total)
		r.hStart, r.hEnd = make([]atomic.Int64, len(jobs)), make([]atomic.Int64, len(jobs))
		conf.Ops = map[string]serve.Op{
			"bench.busy":  r.stamped(busyOp),
			"bench.sleep": r.stamped(sleepOp),
		}
	}
	srv, err := serve.New(conf)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	r.srv, r.addr, r.served = srv, ln.Addr().String(), make(chan struct{})
	handler := srv.Handler()
	if tr != nil {
		handler = r.timedHandler(handler)
	}
	r.hs = &http.Server{Handler: handler}
	go func() {
		defer close(r.served)
		_ = r.hs.Serve(ln) // always ErrServerClosed after teardown's Shutdown
	}()
	if r.client, err = dialClient(r.addr, jobs, tr != nil); err == nil {
		r.timer, err = newDueTimer()
	}
	if err != nil {
		r.teardown()
		return nil, err
	}
	// Warm up closed-loop for a fixed time, judging each job as it ends
	// because the next round reuses its record.
	for i, deadline := 0, nowNs()+cfg.warmNs(); nowNs() < deadline; i = (i + 1) % warm {
		r.recs[i] = jobRec{}
		if r.postJob(i) {
			r.pollJob(i)
		}
		if why := r.judge(i); why != "" {
			r.problem("warm-up job %d: %s", i, why)
		}
	}
	return r, nil
}

// teardown drains the server (a clean drain is part of the oracle) and
// stops everything the run started.
func (r *serveRun) teardown() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.srv.Drain(ctx); err != nil {
		r.problem("Drain: %v", err)
	}
	if r.client != nil {
		r.client.close()
	}
	if r.timer != nil {
		r.timer.close()
	}
	if err := r.hs.Shutdown(ctx); err != nil {
		r.problem("http Shutdown: %v", err)
	}
	<-r.served
	r.srv.Close()
}

// busyQuantumNs is how often a busy body offers its CPU to other threads.
const busyQuantumNs = 20_000

// busyOp is the CPU-bound task body of the service workloads, registered
// through Config.Ops: a busy wait of amount ns of wall-clock time (see
// busyWait; the server's built-in spin counts iterations instead), with a
// sched_yield every 20 µs. The yield is for the kernel, not for Go: loopback
// TCP wakes its reader on the writer's CPU, and the thread that just wrote a
// response goes on to run a body there, so without it the woken thread waits
// out a scheduler slice (1.8 ms on the sizing host, against a 35 µs round
// trip) behind a loop that is only reading the clock.
func busyOp(_ context.Context, amount int64) error {
	var reads uint64
	for end := nowNs() + amount; ; {
		left := end - nowNs()
		if left <= 0 {
			break
		}
		reads += busyWait(min(left, busyQuantumNs))
		syscall.RawSyscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
	}
	spinSink.Store(reads)
	return nil
}

// sleepOp is the server's built-in sleep, restated here because a traced
// run must wrap it with stamps.
func sleepOp(ctx context.Context, amount int64) error {
	t := time.NewTimer(time.Duration(amount))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// stamped wraps an op so that it records its start and end against the
// job and task its amount names.
func (r *serveRun) stamped(op serve.Op) serve.Op {
	return func(ctx context.Context, amount int64) error {
		t0 := nowNs()
		job := int(amount >> (amountBits + taskBits))
		task := int(amount>>amountBits) & (1<<taskBits - 1)
		err := op(ctx, amount&(1<<amountBits-1))
		if job < len(r.taskOff) && task < r.jobs[job].tasks {
			i := r.taskOff[job] + task
			r.tStart[i].Store(t0)
			r.tEnd[i].Store(nowNs())
		}
		return err
	}
}

const graphHeader = "X-Bench-Graph"

// timedHandler is the harness-owned handler around Server.Handler(): it
// times ServeHTTP for requests that say which job they are.
func (r *serveRun) timedHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		t0 := nowNs()
		next.ServeHTTP(w, req)
		t1 := nowNs()
		if g := req.Header.Get(graphHeader); g != "" {
			if i, err := strconv.Atoi(g); err == nil && i >= 0 && i < len(r.hStart) {
				r.hStart[i].Store(t0)
				r.hEnd[i].Store(t1)
			}
		}
	})
}

var tenantHeaders = func() (h [len(tenantNames)]string) {
	for i, t := range tenantNames {
		h[i] = "X-RAA-Tenant: " + t
	}
	return h
}()

// postJob sends job i and records the verdict; it reports whether the job
// was admitted.
func (r *client) postJob(i int) bool {
	j, rec := &r.jobs[i], &r.recs[i]
	headers := []string{tenantHeaders[j.tenant]}
	if r.traced {
		headers = append(headers, graphHeader+": "+strconv.Itoa(i))
	}
	rec.sent = nowNs()
	code, body, err := r.post.do("POST", "/v1/graphs", j.body, headers...)
	rec.acked = nowNs()
	if err != nil {
		rec.err = err.Error()
		return false
	}
	rec.code = code
	r.codes[code]++
	if code != http.StatusAccepted {
		return false
	}
	if j.fail {
		r.failAdmitted++
	}
	var resp serve.SubmitResponse
	if err := json.Unmarshal(body, &resp); err != nil || resp.Job == "" {
		rec.err = fmt.Sprintf("202 without a job id: %q", body)
		return false
	}
	rec.id = resp.Job
	return true
}

func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "cancelled"
}

// pollJob long-polls an admitted job to its terminal state.
func (r *client) pollJob(i int) {
	rec := &r.recs[i]
	for attempt := 0; attempt < 15; attempt++ {
		code, body, err := r.poll.do("GET", "/v1/jobs/"+rec.id+"?wait=2s", nil)
		if err != nil {
			rec.err = err.Error()
			return
		}
		if code != http.StatusOK {
			rec.err = fmt.Sprintf("GET job: status %d: %s", code, body)
			return
		}
		if err := json.Unmarshal(body, &rec.status); err != nil {
			rec.err = "GET job: " + err.Error()
			return
		}
		if terminal(rec.status.State) {
			rec.collected = true
			return
		}
	}
	rec.err = "not terminal after 30 s"
}

// scrapeMetrics GETs /metrics on the collector connection.
func (r *serveRun) scrapeMetrics() {
	t0 := nowNs()
	code, body, err := r.poll.do("GET", "/metrics", nil)
	dur := nowNs() - t0
	if err != nil || code != http.StatusOK {
		r.problem("GET /metrics: status %d, err %v", code, err)
		return
	}
	r.scrapes = append(r.scrapes, scrape{durNs: dur, m: parseMetrics(body)})
}

// generate is the open loop: it sends every job at its due time whatever
// the server is doing, on one connection, from one locked thread.
func (r *serveRun) generate(base int64, lateness *hist) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	defer close(r.ids)
	// The thread may have run other goroutines before it was locked.
	cpu0 := threadCPU() - r.genCPU.Load()
	for i := r.warm; i < len(r.jobs); i++ {
		due := base + r.jobs[i].due
		if err := r.timer.waitUntil(due); err != nil {
			r.recs[i].err = err.Error()
		}
		r.recs[i].due = due
		if r.postJob(i) {
			r.ids <- i
		}
		lateness.record(r.recs[i].sent - due)
		r.genCPU.Store(threadCPU() - cpu0)
	}
}

// collect follows every admitted job to its terminal state and scrapes
// /metrics once a second, on the second connection.
func (r *serveRun) collect() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	tick := time.NewTicker(scrapeEveryNs)
	defer tick.Stop()
	cpu0 := threadCPU() - r.colCPU.Load()
	for {
		select {
		case i, ok := <-r.ids:
			if !ok {
				r.scrapeMetrics() // the final page the counter oracle reads
				r.colCPU.Store(threadCPU() - cpu0)
				return
			}
			r.pollJob(i)
		case <-tick.C:
			r.scrapeMetrics()
		}
		r.colCPU.Store(threadCPU() - cpu0)
	}
}

// serveWindow is a measured window's raw material.
type serveWindow struct {
	window
	lateness hist
	genCPUNs int64
	calib    []float64
}

// measure opens the window: generator and collector run on their own
// threads while this goroutine samples the process counters at the slice
// boundaries.
func (r *serveRun) measure(windowNs int64, slices int) *serveWindow {
	w := &serveWindow{}
	type sample struct {
		at, cpu int64
		allocs  uint64
	}
	cpuNow := func() int64 { return processCPU() - r.genCPU.Load() - r.colCPU.Load() }
	gen0 := r.genCPU.Load()
	base := nowNs() + windowLeadNs
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); r.generate(base, &w.lateness) }()
	go func() { defer wg.Done(); r.collect() }()
	samples := make([]sample, slices+1)
	sliceNs := windowNs / int64(slices)
	for s := 0; s <= slices; s++ {
		if d := base + int64(s)*sliceNs - nowNs(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		samples[s] = sample{nowNs(), cpuNow(), allocCount()}
		if s < slices {
			w.calib = append(w.calib, calibrate())
		}
	}
	wg.Wait()
	w.genCPUNs = r.genCPU.Load() - gen0
	w.slices = make([]sliceStat, slices)
	for s := range w.slices {
		st := &w.slices[s]
		st.durNs = samples[s+1].at - samples[s].at
		st.cpuNs = samples[s+1].cpu - samples[s].cpu
		st.allocs = samples[s+1].allocs - samples[s].allocs
		st.calib = w.calib[s]
	}
	r.account(w, base, sliceNs)
	return w
}

// expectation is the terminal state the generator planned for a job.
func (j *jobT) expectation() (state string, attempts int64) {
	if j.fail {
		return "failed", int64(j.tasks) + 2
	}
	return "done", int64(j.tasks)
}

// judge is the per-job oracle: it returns "" for a job whose outcome is
// the planned one (a refusal is planned for: it is shed, not failed).
func (r *client) judge(i int) string {
	j, rec := &r.jobs[i], &r.recs[i]
	switch {
	case rec.err != "":
		return rec.err
	case rec.code == http.StatusServiceUnavailable || rec.code == http.StatusTooManyRequests:
		return ""
	case rec.code != http.StatusAccepted:
		return fmt.Sprintf("unexpected status %d", rec.code)
	case !rec.collected:
		return "admitted job was never collected"
	}
	state, attempts := j.expectation()
	st := &rec.status
	switch {
	case st.State != state:
		return fmt.Sprintf("state %q, want %q (%s)", st.State, state, st.Error)
	case st.Attempts != attempts:
		return fmt.Sprintf("attempts %d, want %d", st.Attempts, attempts)
	case st.Tasks != j.tasks:
		return fmt.Sprintf("tasks %d, want %d", st.Tasks, j.tasks)
	case st.Lane != laneNames[j.lane] || st.Tenant != tenantNames[j.tenant]:
		return fmt.Sprintf("lane/tenant %s/%s, want %s/%s", st.Lane, st.Tenant, laneNames[j.lane], tenantNames[j.tenant])
	case j.fail && st.FailureKind != "error":
		return fmt.Sprintf("failure_kind %q, want error", st.FailureKind)
	}
	return ""
}

// graphNs is a job's submit→terminal latency: due→ack on the harness
// clock plus the server-stamped admission→terminal latency. The two
// overlap by the time the server takes to write the 202.
func (rec *jobRec) graphNs() int64 {
	return rec.acked - rec.due + int64(rec.status.LatencyMS*1e6)
}

// account judges every job of the window and sorts it into its slice by
// due time.
func (r *serveRun) account(w *serveWindow, base, sliceNs int64) {
	for i := r.warm; i < len(r.jobs); i++ {
		j, rec := &r.jobs[i], &r.recs[i]
		s := int((rec.due - base) / sliceNs)
		s = max(0, min(s, len(w.slices)-1))
		st := &w.slices[s]
		w.attempted++
		if why := r.judge(i); why != "" {
			w.failed++
			r.problem("job %d (%s): %s", i, jobKindNames[j.kind], why)
			continue
		}
		st.submit.record(rec.acked - rec.due)
		if rec.code != http.StatusAccepted {
			w.shed++
			continue
		}
		lat := rec.graphNs()
		st.graph.record(lat)
		st.tasks += int64(j.tasks)
		if lat <= r.spec.sloNs {
			w.sloOK++
		}
	}
}

// checkCounters is the end-of-run oracle over the last /metrics page: the
// server's verdict counters must equal the codes the client saw, every
// admitted job must be terminal, and the fault counters must equal the
// seeded schedule.
func (r *serveRun) checkCounters() {
	if len(r.scrapes) == 0 {
		r.problem("no /metrics page to check")
		return
	}
	m := r.scrapes[len(r.scrapes)-1].m
	var terminalJobs float64
	for _, t := range tenantNames {
		for _, state := range []string{"done", "failed", "cancelled"} {
			terminalJobs += m[fmt.Sprintf("raa_serve_tenant_jobs_total{tenant=%q,state=%q}", t, state)]
		}
	}
	admitted := float64(r.codes[http.StatusAccepted])
	for _, c := range []struct {
		what      string
		got, want float64
	}{
		{"admission admit", m[`raa_serve_admission_total{verdict="admit"}`], admitted},
		{"admission defer", m[`raa_serve_admission_total{verdict="defer"}`], float64(r.codes[http.StatusServiceUnavailable])},
		{"admission reject", m[`raa_serve_admission_total{verdict="reject"}`], float64(r.codes[http.StatusTooManyRequests])},
		{"admission unavailable", m[`raa_serve_admission_total{verdict="unavailable"}`], 0},
		{"terminal jobs", terminalJobs, admitted},
		{"pool retries", m["raa_pool_retries_total"], 2 * float64(r.failAdmitted)},
		{"pool deadline misses", m["raa_pool_deadline_misses_total"], 0},
		{"pool panics", m["raa_pool_panics_total"], 0},
		{"pool skipped", m["raa_pool_skipped_total"], 0},
		{"pool submitted-executed", m["raa_pool_submitted_total"] - m["raa_pool_executed_total"], 0},
	} {
		if c.got != c.want {
			r.problem("/metrics %s = %v, client saw %v", c.what, c.got, c.want)
		}
	}
}

// runServe runs a service workload: the untraced window for the
// end-to-end metrics, or the traced sequence for the per-layer ones.
func runServe(cfg runConfig) (*result, error) {
	res := &result{cfg: cfg}
	if cfg.traced {
		layers, err := serveLayers(cfg, res)
		res.layers = layers
		return res, err
	}
	var setups []float64
	var r *serveRun
	for rep := 0; rep < cfg.setupReps(); rep++ {
		if r != nil {
			r.teardown()
			res.absorbServe(r, nil)
		}
		t0 := nowNs()
		var err error
		if r, err = setupServe(cfg, cfg.windowNs(), numSlices, nil); err != nil {
			return nil, err
		}
		setups = append(setups, float64(nowNs()-t0)/1e9)
	}
	w := r.measure(cfg.windowNs(), numSlices)
	r.checkCounters()
	r.teardown()
	res.absorbServe(r, w)
	w.printSlices()
	res.e2e = w.e2e(setups)
	if p50 := w.lateness.quantile(0.5) / 1e3; p50 > 100 {
		fmt.Printf("WARNING: the load generator ran late (p50 %.0f us > 100 us): the host is too busy for this run's latencies to mean anything\n", p50)
	}
	return res, nil
}

// absorbServe folds a finished run's counts and oracle failures (those of
// its warm-up included) into the result.
func (res *result) absorbServe(r *serveRun, w *serveWindow) {
	if w != nil {
		res.attempted += w.attempted
		res.failed += w.failed
	}
	for _, p := range r.problems {
		res.problem("%s", p)
	}
}
