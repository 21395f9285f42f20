package runtime

import (
	"sync/atomic"
	"unsafe"
)

// workerSig is one worker's block of the signals layer — the only
// per-dispatch counters in the runtime: plain counters the worker bumps
// with uncontended atomic adds on its own cache line. Every per-worker and
// per-class figure Stats reports is a read-time grouping of these blocks. A
// block is exactly one cache line, which keeps neighbouring workers'
// counters off each other's.
type workerSig struct {
	executed uint64 // tasks whose body ran on this worker
	steals   uint64 // dispatches stolen from another worker's queue
	skipped  uint64 // tasks skipped on an already-cancelled context
	// searches counts idle-search phases this worker entered (steal
	// scheduler only, see stealScheduler.search); searchHits those that
	// ended on queued work instead of a park.
	searches   uint64
	searchHits uint64
	_          [3]uint64 // pad to the cache line; shrink when adding a field
}

// A workerSig that is not exactly one cache line fails to compile here.
var _ [0]struct{} = [unsafe.Sizeof(workerSig{}) - 64]struct{}{}

// signals is the runtime's self-observation layer: the one set of cheap
// counters every hot path already touches, from which the public Stats
// snapshot is derived (the adaptive controller reads one figure beside it,
// the scheduler's queued-task count). The
// per-worker counters live in workers (padded, owner-bumped); the
// cross-cutting ones — park/wake churn, the fault counters — are single
// atomics bumped at the schedulers' slow-path sites only, so the busy
// steady state never contends on them.
type signals struct {
	workers []workerSig
	// parks and wakes count worker park/wake transitions across all
	// schedulers and the class gate — the churn signal of a pool that is
	// under-loaded (or thrashing between phases).
	parks atomic.Uint64
	wakes atomic.Uint64
	// The fault-tolerance counters are bumped on failure paths only, so
	// the fault-free steady state never touches them: panics counts
	// recovered body (and OnDone-hook) panics, retries re-armed attempts,
	// deadlineMiss bodies that overran their TaskSpec.Deadline, and
	// quarantined tasks terminally failed by a panic — poisoned tasks whose
	// retry budget (if any) never produced a clean run.
	panics       atomic.Uint64
	retries      atomic.Uint64
	deadlineMiss atomic.Uint64
	quarantined  atomic.Uint64
	// parkedTasks is the gauge behind Stats.ParkedTasks, moved when a task
	// is handed to a waiter and when its wait ends.
	parkedTasks atomic.Int64
}

func newSignals(workers int) *signals {
	return &signals{workers: make([]workerSig, workers)}
}
