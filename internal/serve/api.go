package serve

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/alarm"
	"repro/internal/runtime"
)

// Lane is a request's priority lane. Lanes order both admission severity
// and dispatch: control traffic (session/coordination graphs) outranks
// data (the actual work), which outranks telemetry (best-effort
// background reporting). The lane is also the leading digit of the
// runtime submit-priority hint (poolHint), so a criticality-aware
// scheduler sees the same ranking.
type Lane uint8

// The three lanes, most to least privileged.
const (
	// LaneControl is for small coordination graphs; it may take the
	// queue's reserve and never defers on pool backlog.
	LaneControl Lane = iota
	// LaneData is the default lane for work graphs.
	LaneData
	// LaneTelemetry is best-effort: the first lane deferred on backlog.
	LaneTelemetry

	laneCount = 3
)

// String renders the lane's wire name.
func (l Lane) String() string {
	switch l {
	case LaneControl:
		return "control"
	case LaneData:
		return "data"
	case LaneTelemetry:
		return "telemetry"
	default:
		return fmt.Sprintf("lane(%d)", int(l))
	}
}

// Priority is the lane's rank, the leading digit of the pool hint (see
// poolHint): control 3, data 2, telemetry 1.
func (l Lane) Priority() int { return int(laneCount - l) }

// hintShift places the lane rank above the launch order in a pool hint.
// The constant below does not compile where int is too narrow for it.
const (
	hintShift = 40
	_         = int(laneCount<<hintShift + 1)
)

// poolHint is the submit-priority hint of every task of the launch-th job
// the dispatcher launched, of the given lane: lane rank first, launch order
// second, and the low bit left to the runtime, which adds 1 to a task that
// has a successor. Whatever the runtime adds, every task of a job outranks
// every task of a lower-lane job and of a younger job of its own lane — a
// job waits in the pool for nothing ranked below it. Exact for any two jobs
// whose launch numbers are less than 2^(hintShift-1) apart, so for any two
// that are in the pool together.
func poolHint(l Lane, launch uint64) int {
	return l.Priority()<<hintShift - 2*int(launch)
}

// parseLane resolves a wire lane name; the empty string is LaneData.
func parseLane(b []byte) (Lane, error) {
	switch string(b) {
	case "control":
		return LaneControl, nil
	case "data", "":
		return LaneData, nil
	case "telemetry":
		return LaneTelemetry, nil
	default:
		return LaneData, fmt.Errorf("unknown lane %q (want control, data, or telemetry)", b)
	}
}

// DepRequest is one dependence annotation of a task in a submitted graph.
// Keys are names local to the job: the server gives each job its own key
// cells before they reach the runtime's dependence tracker, so tenants
// cannot construct cross-job (let alone cross-tenant) hazards.
type DepRequest struct {
	// Key is the job-local dependence key.
	Key string `json:"key"`
	// Mode is "in", "out", or "inout".
	Mode string `json:"mode"`
}

// RetrySpec is a task's retry policy on the wire. Zero/absent means no
// retries; the runtime re-enqueues a failing task up to Max times with
// capped exponential backoff.
type RetrySpec struct {
	// Max is the retry budget (re-executions after the first attempt),
	// capped at MaxRetryBudget.
	Max int `json:"max"`
	// BackoffMS is the first retry's delay in milliseconds; it doubles per
	// retry up to MaxBackoffMS. Zero re-enqueues immediately.
	BackoffMS int64 `json:"backoff_ms,omitempty"`
	// MaxBackoffMS caps the doubling (0 = uncapped within Max retries).
	MaxBackoffMS int64 `json:"max_backoff_ms,omitempty"`
}

// MaxRetryBudget bounds a task's wire-requested retry budget: a tenant
// may not make the pool re-run one poisoned body more than this many
// times.
const MaxRetryBudget = 16

// TaskRequest is one task of a submitted graph.
type TaskRequest struct {
	// Name is an optional task label (shows up in runtime errors).
	Name string `json:"name,omitempty"`
	// Op names the operation to run; see Config.Ops and the built-ins
	// (noop, spin, sleep, fail).
	Op string `json:"op"`
	// Amount parameterises the op (spin iterations, sleep nanoseconds).
	Amount int64 `json:"amount,omitempty"`
	// Deps are the task's dependence annotations.
	Deps []DepRequest `json:"deps,omitempty"`
	// Retry is the task's optional retry policy.
	Retry *RetrySpec `json:"retry,omitempty"`
	// DeadlineMS bounds one execution attempt of the task body in
	// milliseconds (0 = unbounded). An attempt past its deadline fails
	// with a deadline error — and may then retry under Retry.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// GraphRequest is the body of POST /v1/graphs: one task graph to run on
// behalf of one tenant.
type GraphRequest struct {
	// Tenant identifies the submitting tenant; the X-RAA-Tenant header
	// wins when both are set.
	Tenant string `json:"tenant,omitempty"`
	// Lane is the graph's priority lane name (default "data").
	Lane string `json:"lane,omitempty"`
	// OnFailure is the job's failure policy: "continue" (default — the
	// rest of the graph keeps running after a task fails) or "fail_fast"
	// (the first task failure cancels the job's remaining tasks).
	OnFailure string `json:"on_failure,omitempty"`
	// Tasks is the graph, in submission (program) order.
	Tasks []TaskRequest `json:"tasks"`
}

// SubmitResponse is the body returned by POST /v1/graphs for every
// verdict: 202 admitted, 503+Retry-After deferred (or draining), 429
// rejected.
type SubmitResponse struct {
	// Job is the job identifier (admitted submissions only).
	Job string `json:"job,omitempty"`
	// Status is "queued", "deferred", or "rejected".
	Status string `json:"status"`
	// Reason names the admission rule behind a non-admit verdict.
	Reason string `json:"reason,omitempty"`
	// RetryAfterMS mirrors the Retry-After header for deferred verdicts.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// JobStatus is the body of GET /v1/jobs/{id}.
type JobStatus struct {
	// Job is the job identifier.
	Job string `json:"job"`
	// Tenant is the owning tenant.
	Tenant string `json:"tenant"`
	// Lane is the job's lane name.
	Lane string `json:"lane"`
	// State is "queued", "running", "done", "failed", or "cancelled".
	State string `json:"state"`
	// Tasks is the graph's task count (its token cost).
	Tasks int `json:"tasks"`
	// Error carries the first task error of a failed job.
	Error string `json:"error,omitempty"`
	// DoneSeq is the job's global completion index (1 = first job the
	// server finished), 0 while non-terminal. Fairness assertions are
	// built on it: it orders completions without comparing clocks.
	DoneSeq uint64 `json:"done_seq,omitempty"`
	// LatencyMS is admission-to-terminal latency, 0 while non-terminal.
	LatencyMS float64 `json:"latency_ms,omitempty"`
	// Attempts is the total task-body executions the job has burned,
	// retries included — Attempts > Tasks means the retry machinery fired.
	Attempts int64 `json:"attempts,omitempty"`
	// FailureKind classifies a failed job's first error: "panic",
	// "deadline", "skip" (a predecessor's terminal panic poisoned the
	// task), or "error" (a plain body error). Empty on non-failed jobs.
	FailureKind string `json:"failure_kind,omitempty"`
}

// ErrorResponse is the body of every non-2xx error reply.
type ErrorResponse struct {
	// Error describes what was wrong with the request.
	Error string `json:"error"`
}

// Op is one executable operation a task of a submitted graph can name.
// Amount is the request's op parameter; the context is the job's (it is
// cancelled when the job is), and ops that wait must honour it.
type Op func(ctx context.Context, amount int64) error

// builtinOps are the operations every server understands. They are
// synthetic by design: the service executes task *graphs* — the
// structure, placement, and flow control are the product; the body is a
// calibrated amount of work.
func builtinOps() map[string]Op {
	return map[string]Op{
		"noop": func(context.Context, int64) error { return nil },
		"spin": func(_ context.Context, amount int64) error {
			// Deterministic CPU work: amount iterations of a loop the
			// compiler cannot elide through the sink.
			var x uint64
			for i := int64(0); i < amount; i++ {
				x += uint64(i) ^ (x >> 3)
			}
			spinSink.Store(x)
			return nil
		},
		"sleep": func(ctx context.Context, amount int64) error {
			// The stand-in for an I/O wait gives its worker back: the task
			// completes when the wait ends. Where the pool cannot take the
			// wait (a deadline-bounded attempt) it is waited in place.
			if d := time.Duration(amount); !runtime.CompleteAfter(ctx, d) {
				return alarm.Sleep(ctx, d, nil)
			}
			return nil
		},
		"fail": func(context.Context, int64) error {
			return fmt.Errorf("task failed by request")
		},
	}
}

// spinSink defeats dead-code elimination of the spin op's loop.
var spinSink atomic.Uint64

// parseOnFailure validates a graph's failure policy and reports whether
// it is fail-fast.
func parseOnFailure(b []byte) (bool, error) {
	switch string(b) {
	case "", "continue":
		return false, nil
	case "fail_fast":
		return true, nil
	default:
		return false, fmt.Errorf("unknown on_failure %q (want continue or fail_fast)", b)
	}
}

// parseMode resolves a wire dependence mode.
func parseMode(b []byte) (runtime.AccessMode, bool) {
	switch string(b) {
	case "in":
		return runtime.ModeIn, true
	case "out":
		return runtime.ModeOut, true
	case "inout":
		return runtime.ModeInOut, true
	default:
		return 0, false
	}
}

// validateGraph checks a decoded graph against everything lower relies
// on. It runs before admission — a malformed graph is a 400 that burns no
// quota — and allocates nothing for a valid one, so a request that is then
// refused has cost its decode and its reply only.
func (s *Server) validateGraph(req *wireGraph) error {
	if len(req.Tasks) == 0 {
		return fmt.Errorf("graph has no tasks")
	}
	if len(req.Tasks) > s.cfg.MaxGraphTasks {
		return fmt.Errorf("graph has %d tasks, limit is %d", len(req.Tasks), s.cfg.MaxGraphTasks)
	}
	for i := range req.Tasks {
		tr := &req.Tasks[i]
		if _, ok := s.ops[string(tr.Op)]; !ok {
			return fmt.Errorf("task %d: unknown op %q", i, []byte(tr.Op))
		}
		if tr.Amount < 0 {
			return fmt.Errorf("task %d: negative amount", i)
		}
		for j, d := range tr.Deps {
			if len(d.Key) == 0 {
				return fmt.Errorf("task %d: dep %d has empty key", i, j)
			}
			if _, ok := parseMode(d.Mode); !ok {
				return fmt.Errorf("task %d: dep %d has unknown mode %q (want in, out, or inout)", i, j, []byte(d.Mode))
			}
		}
		if r := tr.Retry; r != nil {
			if r.Max < 0 || r.Max > MaxRetryBudget {
				return fmt.Errorf("task %d: retry max %d out of range [0, %d]", i, r.Max, MaxRetryBudget)
			}
			if r.BackoffMS < 0 || r.MaxBackoffMS < 0 {
				return fmt.Errorf("task %d: negative retry backoff", i)
			}
		}
		if tr.DeadlineMS < 0 {
			return fmt.Errorf("task %d: negative deadline", i)
		}
	}
	return nil
}

// failureKind classifies a failed job's first error for JobStatus. A
// SkipError is checked first: it wraps its root cause, so the As-chain
// would otherwise report the cause's kind for a task that never ran.
func failureKind(err error) string {
	var se *runtime.SkipError
	var pe *runtime.PanicError
	var de *runtime.DeadlineError
	switch {
	case err == nil:
		return ""
	case errors.As(err, &se):
		return "skip"
	case errors.As(err, &pe):
		return "panic"
	case errors.As(err, &de):
		return "deadline"
	default:
		return "error"
	}
}
