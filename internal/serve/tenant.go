package serve

import (
	"context"
	"hash/fnv"
	"sync/atomic"
	"time"
)

// tenant is one tenant's session: its bounded job queue, its token
// accounting, and its verdict counters. Sessions are created on first
// use and live for the server's lifetime; all fields are guarded by the
// server's lock unless noted.
type tenant struct {
	id string
	// hash is a stable FNV-1a hash of the id, packed into flight-recorder
	// markers as the correlation word.
	hash uint64
	// q is the tenant's lane-partitioned job queue, Config.QueueCap deep.
	q tenantQueue
	// inFlight is the tenant's tokens held by admitted (queued or
	// running) jobs. A job's cost is its task count; tokens return when
	// the job reaches a terminal state.
	inFlight int64
	// Verdict counters for /metrics, indexed by Verdict.
	verdicts [4]uint64
	// jobs counts terminal jobs by state for /metrics.
	jobsDone, jobsFailed, jobsCancelled uint64
}

// tenantHash is the stable id hash packed into marker events.
func tenantHash(id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return h.Sum64()
}

// jobState is a job's lifecycle state.
type jobState uint8

// The job lifecycle: queued → running → one of the three terminal
// states. A queued job whose cancel arrives before dispatch goes
// straight to cancelled.
const (
	jobQueued jobState = iota
	jobRunning
	jobDone
	jobFailed
	jobCancelled
)

// String renders the state's wire name.
func (s jobState) String() string {
	switch s {
	case jobQueued:
		return "queued"
	case jobRunning:
		return "running"
	case jobDone:
		return "done"
	case jobFailed:
		return "failed"
	case jobCancelled:
		return "cancelled"
	default:
		return "state(?)"
	}
}

// terminal reports whether the state is one of the three end states.
func (s jobState) terminal() bool { return s >= jobDone }

// job is one admitted graph: its validated request, its completion
// accounting, and its lifecycle state. state is guarded by the server's
// lock; remaining and firstErr are touched from worker goroutines
// through the per-task OnDone hooks.
type job struct {
	id     string
	num    uint64 // numeric identity for flight-recorder markers
	tenant *tenant
	lane   Lane
	// sub is the pooled request, owned by the job from admission until
	// the dispatcher pops it: launch lowers its graph into the pool, a job
	// cancelled while queued just hands it back. Nil from then on.
	sub  *submitBuf
	cost int64

	state jobState
	// cancelRequested marks a cancel that arrived while the job was
	// queued; the dispatcher reaps such jobs instead of launching them.
	cancelRequested bool
	// failFast makes the first task failure cancel the job's remaining
	// tasks (the graph's on_failure policy).
	failFast bool

	// remaining is the count of tasks whose OnDone has not fired yet;
	// the decrement to zero triggers jobDone.
	remaining atomic.Int32
	// firstErr records the first task error (body error or skip cause).
	firstErr atomic.Pointer[error]
	// attempts counts task-body executions, retries included; bodies are
	// wrapped at launch to bump it.
	attempts atomic.Int64

	// ctx is the job's context; cancel skips tasks not yet started and
	// is observed by in-flight sleep-style ops.
	ctx    context.Context
	cancel context.CancelFunc

	// done closes when the job reaches a terminal state.
	done chan struct{}

	// admittedAt/doneAt and doneSeq order completions for latency and
	// fairness accounting (doneSeq is the global completion index).
	admittedAt time.Time
	doneAt     time.Time
	doneSeq    uint64

	// cells are the first key cells lower hands out: a small graph's
	// dependence keys are addresses in its own record.
	cells [jobCells]keyCell
}

// noteErr records the first task error.
func (j *job) noteErr(err error) {
	if err == nil {
		return
	}
	j.firstErr.CompareAndSwap(nil, &err)
}
