package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/url"
	stdruntime "runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/alarm"
	"repro/internal/chaos"
	"repro/internal/flightrec"
	"repro/internal/runtime"
)

// Config sizes a Server and its shared runtime pool. The zero value is
// usable: every field has a production-shaped default.
type Config struct {
	// Workers sizes the shared runtime pool (default GOMAXPROCS). The
	// pool always runs CATS: the lanes' priority hints need a
	// criticality-aware scheduler to order anything.
	Workers int
	// FlightRecorder enables the runtime's flight recorder; the server
	// then stamps request-scoped timeline markers (admit/launch/done) so
	// a merged timeline can be cut along job boundaries.
	FlightRecorder bool
	// TenantQuota is each tenant's token quota; an admitted job holds
	// one token per task until it reaches a terminal state (default 256).
	TenantQuota int64
	// QueueCap bounds each tenant's queued-job count (default 64). Its
	// last quarter is the control lane's reserve: data and telemetry
	// submissions defer while the queue is that full.
	QueueCap int
	// MaxRunningJobs caps the jobs in the pool as each lane sees them: a
	// job is launched only while fewer than this many jobs of its own and
	// the more privileged lanes are running, so the pool holds at most
	// three times as many and a lower lane's jobs never hold a higher
	// lane's back. Admitted jobs beyond the cap wait in their tenant
	// queues, which is what makes cross-tenant dispatch fairness
	// meaningful (default 4×Workers, minimum 2).
	MaxRunningJobs int
	// MaxGraphTasks bounds one graph's task count (default 1024).
	MaxGraphTasks int
	// RetryAfter is the delay advertised with deferred verdicts
	// (default 1s).
	RetryAfter time.Duration
	// MaxBodyBytes bounds a request body (default 1 MiB).
	MaxBodyBytes int64
	// Ops registers extra operations (or overrides built-ins) by name;
	// tests inject gate-style ops here.
	Ops map[string]Op
	// Chaos, when non-nil, wraps every launched task body with a
	// deterministic fault injector (see internal/chaos): a seeded fraction
	// of bodies panic, fail, or stall. Test-and-drill machinery — the
	// service must stay alive and every job must still reach exactly one
	// terminal state under the schedule.
	Chaos *chaos.Config
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = defaultWorkers()
	}
	if c.TenantQuota <= 0 {
		c.TenantQuota = 256
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.MaxRunningJobs <= 0 {
		// Derived default only: an explicit 1 (serialise jobs) is honoured.
		c.MaxRunningJobs = 4 * c.Workers
		if c.MaxRunningJobs < 2 {
			c.MaxRunningJobs = 2
		}
	}
	if c.MaxGraphTasks <= 0 {
		c.MaxGraphTasks = 1024
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	return c
}

// jobHistory bounds how many terminal jobs stay queryable through
// GET /v1/jobs/{id}; the oldest is evicted first.
const jobHistory = 4096

// Server is the multi-tenant task service: per-tenant sessions with
// token quotas and bounded queues in front of one shared runtime pool,
// an admission controller at the door, a fair dispatcher between the
// two, and drain/metrics/health endpoints around them. Create with New,
// expose Handler over any http.Server, stop with Drain then Close.
type Server struct {
	cfg Config
	rt  *runtime.Runtime
	ops map[string]Op
	mux *http.ServeMux
	// inj is the optional chaos injector wrapped around launched bodies.
	inj *chaos.Injector
	// retryAfter is every deferred reply's Retry-After value, RetryAfter
	// in whole seconds rounded up, shared as jsonContentType is.
	retryAfter []string

	mu   sync.Mutex
	cond *sync.Cond // wakes the dispatcher: admits, completions, drain
	// tenants by id, plus the stable rotation order for fair dispatch.
	tenants map[string]*tenant
	order   []*tenant
	rr      int // rotation cursor into order
	jobs    map[string]*job
	history []*job // terminal jobs in completion order, for eviction
	jobSeq  uint64
	doneSeq uint64
	// running counts launched, non-terminal jobs by lane; pendingJobs
	// counts queue entries not yet popped (including cancel-reaped ones).
	running     [laneCount]int
	pendingJobs int
	draining    bool
	closed      bool          // Close already ran the teardown
	idle        chan struct{} // closed when the dispatcher exits drained
	// verdicts counts admission outcomes by Verdict, across tenants.
	verdicts [4]uint64
	// statsBuf backs /metrics' StatsInto snapshots.
	statsBuf runtime.Stats

	// Dispatcher goroutine only; not guarded by mu. intern is lower's
	// key-name → cell table, emptied after every job; specs and deps are
	// the slabs lower fills and launch clears.
	intern map[string]*keyCell
	specs  []runtime.TaskSpec
	deps   []runtime.Dep
}

// New builds a Server and its runtime pool and starts the dispatcher.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	opts := []runtime.Option{
		runtime.WithWorkers(cfg.Workers),
		runtime.WithScheduler(runtime.CATS),
	}
	if cfg.FlightRecorder {
		opts = append(opts, runtime.WithFlightRecorder(flightrec.Options{}))
	}
	ops := builtinOps()
	for name, op := range cfg.Ops {
		ops[name] = op
	}
	s := &Server{
		cfg:        cfg,
		rt:         runtime.New(opts...),
		ops:        ops,
		retryAfter: []string{strconv.Itoa(int((cfg.RetryAfter + time.Second - 1) / time.Second))},
		tenants:    make(map[string]*tenant),
		jobs:       make(map[string]*job),
		idle:       make(chan struct{}),
		intern:     make(map[string]*keyCell),
	}
	if cfg.Chaos != nil {
		s.inj = chaos.New(*cfg.Chaos)
	}
	s.cond = sync.NewCond(&s.mu)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/graphs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	go s.dispatchLoop()
	return s, nil
}

// Handler is the server's HTTP surface, for mounting on an http.Server
// or an httptest.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Runtime exposes the shared pool (read-only use: stats, recorder).
func (s *Server) Runtime() *runtime.Runtime { return s.rt }

// Drain begins a graceful drain and waits for it to finish: admission
// switches to 503 immediately, already-admitted jobs (queued and
// running) run to completion, and the dispatcher exits once nothing is
// left. Drain returns ctx.Err if the context expires first — the drain
// itself keeps going; a later call observes it. Safe to call more than
// once.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.cond.Broadcast()
	}
	idle := s.idle
	s.mu.Unlock()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops the server: any jobs still live are cancelled, the
// dispatcher is drained, and the runtime pool is shut down. A graceful
// stop is Drain followed by Close; Close alone is the fast path for
// tests and error exits.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.draining = true
	for _, j := range s.jobs {
		s.cancelLocked(j)
	}
	s.cond.Broadcast()
	idle := s.idle
	s.mu.Unlock()
	<-idle
	s.rt.Shutdown()
}

// tenantLocked returns (creating on first use) the tenant session.
func (s *Server) tenantLocked(id string) *tenant {
	tn := s.tenants[id]
	if tn == nil {
		tn = &tenant{id: id, hash: tenantHash(id)}
		s.tenants[id] = tn
		s.order = append(s.order, tn)
	}
	return tn
}

// marker stamps a request-scoped timeline marker when the pool runs a
// flight recorder: job number, phase, and the tenant hash as the
// correlation word.
func (s *Server) marker(j *job, phase uint64) {
	if rec := s.rt.FlightRecorder(); rec != nil {
		rec.RecordExternal(flightrec.KindMarker, j.num, phase, j.tenant.hash)
	}
}

// admitJob runs the admission ladder for one checked request and, on
// admit, creates + enqueues the job, which takes ownership of sb.
// Exactly one verdict counter is bumped per call.
func (s *Server) admitJob(sb *submitBuf) (*job, decision) {
	cost := int64(len(sb.g.Tasks))
	s.mu.Lock()
	tn := s.tenantLocked(sb.tenant)
	d := decide(admissionInputs{
		draining:    s.draining,
		lane:        sb.lane,
		cost:        cost,
		quota:       s.cfg.TenantQuota,
		inFlight:    tn.inFlight,
		queueDepth:  tn.q.depth,
		queueCap:    s.cfg.QueueCap,
		poolBacklog: s.rt.Backlog(),
		workers:     int64(s.cfg.Workers),
	})
	tn.verdicts[d.verdict]++
	s.verdicts[d.verdict]++
	if d.verdict != VerdictAdmit {
		s.mu.Unlock()
		return nil, d
	}
	s.jobSeq++
	var idBuf [24]byte // the id's digits are appended here, then copied once
	j := &job{
		id:         string(strconv.AppendUint(append(idBuf[:0], "j-"...), s.jobSeq, 10)),
		num:        s.jobSeq,
		tenant:     tn,
		lane:       sb.lane,
		sub:        sb,
		cost:       cost,
		failFast:   sb.failFast,
		admittedAt: time.Now(),
		done:       make(chan struct{}),
	}
	j.ctx, j.cancel = context.WithCancel(context.Background())
	j.remaining.Store(int32(cost))
	tn.inFlight += cost
	tn.q.push(j)
	s.pendingJobs++
	s.jobs[j.id] = j
	s.marker(j, flightrec.MarkerAdmit) // before the dispatcher can launch j
	s.cond.Signal()
	s.mu.Unlock()
	return j, d
}

// finishLocked moves a job to a terminal state exactly once: releases
// its tokens, stamps the completion order, wakes the dispatcher, and
// evicts history past the bound. Caller holds s.mu.
func (s *Server) finishLocked(j *job, state jobState) {
	if j.state.terminal() {
		return
	}
	wasRunning := j.state == jobRunning
	j.state = state
	j.doneAt = time.Now()
	s.doneSeq++
	j.doneSeq = s.doneSeq
	j.tenant.inFlight -= j.cost
	switch state {
	case jobDone:
		j.tenant.jobsDone++
	case jobFailed:
		j.tenant.jobsFailed++
	case jobCancelled:
		j.tenant.jobsCancelled++
	}
	if wasRunning {
		s.running[j.lane]--
	}
	j.cancel() // release the context's resources
	close(j.done)
	s.history = append(s.history, j)
	for len(s.history) > jobHistory {
		old := s.history[0]
		s.history[0] = nil
		s.history = s.history[1:]
		delete(s.jobs, old.id)
	}
	s.cond.Broadcast()
	s.marker(j, flightrec.MarkerDone)
}

// jobFinished is called by the last task's OnDone hook (on a pool
// worker): it classifies the outcome and finishes the job.
func (s *Server) jobFinished(j *job) {
	var errp *error
	if p := j.firstErr.Load(); p != nil {
		errp = p
	}
	s.mu.Lock()
	state := jobDone
	switch {
	case j.cancelRequested:
		state = jobCancelled
	case errp != nil && errors.Is(*errp, context.Canceled):
		state = jobCancelled
	case errp != nil:
		state = jobFailed
	}
	s.finishLocked(j, state)
	s.mu.Unlock()
}

// --- HTTP handlers ---

// handleSubmit is POST /v1/graphs: decode, validate, admit, enqueue. The
// graph is lowered to runtime specs only once the dispatcher launches it.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	sb := submitPool.Get().(*submitBuf)
	admitted := false
	defer func() {
		if !admitted {
			s.putSubmit(sb)
		}
	}()
	// The tenant header is X-RAA-Tenant, spelled in the canonical form Get
	// would otherwise build.
	if err := s.check(sb, http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), r.Header.Get("X-Raa-Tenant")); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	j, d := s.admitJob(sb)
	switch d.verdict {
	case VerdictAdmit:
		admitted = true
		writeJSON(w, http.StatusAccepted, SubmitResponse{Job: j.id, Status: "queued"})
	case VerdictDefer:
		w.Header()["Retry-After"] = s.retryAfter
		writeJSON(w, http.StatusServiceUnavailable, SubmitResponse{
			Status: "deferred", Reason: d.reason, RetryAfterMS: s.cfg.RetryAfter.Milliseconds(),
		})
	case VerdictReject:
		writeJSON(w, http.StatusTooManyRequests, SubmitResponse{Status: "rejected", Reason: d.reason})
	default: // VerdictUnavailable: draining
		writeJSON(w, http.StatusServiceUnavailable, SubmitResponse{Status: "rejected", Reason: d.reason})
	}
}

// check decodes one POST body into sb and checks everything admission
// relies on, in the order a 400 reports it: the body, the tenant (the
// header's, else the body's), the lane, the failure policy, the graph.
// Its error is the 400 reply's message.
func (s *Server) check(sb *submitBuf, body io.Reader, tenant string) (err error) {
	if err = sb.decode(body); err != nil {
		return errors.New("bad request body: " + err.Error())
	}
	if sb.tenant = tenant; tenant == "" {
		sb.tenant = string(sb.g.Tenant)
	}
	if sb.tenant == "" {
		return errors.New("missing tenant (X-RAA-Tenant header or tenant field)")
	}
	if sb.lane, err = parseLane(sb.g.Lane); err != nil {
		return err
	}
	if sb.failFast, err = parseOnFailure(sb.g.OnFailure); err != nil {
		return err
	}
	return s.validateGraph(&sb.g)
}

// statusLocked renders a job's status. Caller holds s.mu.
func (s *Server) statusLocked(j *job) JobStatus {
	st := JobStatus{
		Job:    j.id,
		Tenant: j.tenant.id,
		Lane:   j.lane.String(),
		State:  j.state.String(),
		Tasks:  int(j.cost),
	}
	st.Attempts = j.attempts.Load()
	if j.state == jobFailed {
		if p := j.firstErr.Load(); p != nil {
			st.Error = (*p).Error()
			st.FailureKind = failureKind(*p)
		}
	}
	if j.state.terminal() {
		st.DoneSeq = j.doneSeq
		st.LatencyMS = float64(j.doneAt.Sub(j.admittedAt)) / float64(time.Millisecond)
	}
	return st
}

// handleJob is GET /v1/jobs/{id}, with optional long-poll:
// ?wait=500ms blocks until the job is terminal or the wait expires,
// then reports the current state either way.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "unknown job"})
		return
	}
	if waitStr := queryValue(r.URL.RawQuery, "wait"); waitStr != "" {
		d, err := time.ParseDuration(waitStr)
		if err != nil || d < 0 {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad wait duration"})
			return
		}
		_ = alarm.Sleep(r.Context(), d, j.done) // the reply is the job's state either way
	}
	s.mu.Lock()
	st := s.statusLocked(j)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// queryValue is url.ParseQuery(raw).Get(key) without building the map:
// the value of the first pair named key among those ParseQuery keeps.
func queryValue(raw, key string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		k, v, _ := strings.Cut(pair, "=")
		k, kerr := url.QueryUnescape(k)
		v, verr := url.QueryUnescape(v)
		if k == key && kerr == nil && verr == nil && !strings.Contains(pair, ";") {
			return v
		}
	}
	return ""
}

// handleCancel is POST /v1/jobs/{id}/cancel (see cancelLocked).
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	if j == nil {
		s.mu.Unlock()
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "unknown job"})
		return
	}
	s.cancelLocked(j)
	st := s.statusLocked(j)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// cancelLocked cancels a job. A queued job finishes immediately (the
// dispatcher reaps its queue entry); a running job has its context
// cancelled — tasks not yet started are skipped, in-flight ops observe the
// cancellation, and the job reaches "cancelled" when its last task
// accounts itself. A terminal job is left as it is. Caller holds s.mu.
func (s *Server) cancelLocked(j *job) {
	switch j.state {
	case jobQueued:
		j.cancelRequested = true
		s.finishLocked(j, jobCancelled)
	case jobRunning:
		j.cancelRequested = true
		j.cancel()
	}
}

// handleHealthz is GET /healthz: 200 while serving, 503 while draining.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

// defaultWorkers is GOMAXPROCS at config time.
func defaultWorkers() int { return stdruntime.GOMAXPROCS(0) }
