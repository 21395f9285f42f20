package flightrec

import "fmt"

// Kind is the event type of one flight-recorder entry.
type Kind uint8

// The recorded event kinds, covering the task lifecycle (submit → ready →
// dispatch → complete, with steal as a dispatch provenance marker) and the
// worker parking protocol (park/wake).
const (
	// KindSubmit: a task was registered with unresolved predecessors. A
	// task that comes out of registration already ready records only
	// KindReady (submission implied), keeping the external hot path at one
	// event per submit.
	KindSubmit Kind = 1 + iota
	// KindReady: the task's last predecessor resolved (or a failed attempt
	// was re-armed) and the task is about to be pushed to the scheduler.
	// Recorded before that push, so the dispatch it enables is globally
	// sequenced after it. Arg is the claim word (see ClaimGen).
	KindReady
	// KindDispatch: a worker popped the task and is about to run it. Arg is
	// the claim word at dispatch; Arg2 is PackDispatch info (stolen flag
	// and, for CATS, the crit-heap/saturation placement facts).
	KindDispatch
	// KindSteal: the dispatch that follows was stolen from another worker's
	// queue. Recorded just before its KindDispatch on the thief's ring.
	KindSteal
	// KindPark: the worker found no work anywhere and is going to sleep.
	KindPark
	// KindWake: the worker woke from a park.
	KindWake
	// KindComplete: the task's body finished (or was skipped on a cancelled
	// context) and its successors are about to be released. Arg is the
	// claim word before any recycle-time generation bump.
	KindComplete
	// Codes 8 and 9 are retired: 8 was KindSignals, one event per
	// adaptive-controller tick, which lapped the external ring and evicted
	// the submit-path history; 9 was the adapt event, one per applied
	// decision of that controller, which is gone too. The kinds after them
	// keep their numbers so dumps recorded before still decode.
	_
	_
	// KindMarker: a request-scoped timeline marker recorded by a layer
	// above the runtime (the serve front end stamps one per job phase
	// transition), so a merged timeline can be cut along request
	// boundaries. Task carries the request/job identifier, Arg a
	// Marker* phase code, Arg2 a caller-defined correlation word (the
	// serve layer packs a tenant hash). The invariant checker ignores
	// markers — they carry provenance, not scheduler state.
	KindMarker
	// KindFault: a task-body attempt failed — it returned an error,
	// panicked (recovered by the worker), or overran its deadline. Arg is
	// the claim word at the failure, Arg2 a PackFault word (fault class
	// plus the attempt index that failed). Every fault must resolve: a
	// re-armed attempt records KindRetry, a terminal failure proceeds to
	// KindComplete — the verifier's fault-resolution invariant checks that
	// neither a fault nor its worker silently vanishes mid-recovery.
	KindFault
	// KindRetry: a failed attempt was re-armed under the task's
	// RetryPolicy and will re-enter the scheduler after its backoff. Arg
	// is the claim word, Arg2 a PackRetry word (new attempt count and the
	// policy's Max); the verifier checks attempt ≤ Max (the retry-budget
	// invariant) and re-admits a later ready event for the task.
	KindRetry
)

// Marker phase codes carried in a KindMarker event's Arg word.
const (
	// MarkerAdmit: the request was admitted and queued.
	MarkerAdmit uint64 = 1 + iota
	// MarkerLaunch: the request's task graph was submitted to the pool.
	MarkerLaunch
	// MarkerDone: the request's last task finished.
	MarkerDone
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindSubmit:
		return "submit"
	case KindReady:
		return "ready"
	case KindDispatch:
		return "dispatch"
	case KindSteal:
		return "steal"
	case KindPark:
		return "park"
	case KindWake:
		return "wake"
	case KindComplete:
		return "complete"
	case KindMarker:
		return "marker"
	case KindFault:
		return "fault"
	case KindRetry:
		return "retry"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// MarshalText renders the kind as its name in JSON/text exports.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// ExternalWorker is the Worker value of events recorded by goroutines
// outside the pool (the submit path).
const ExternalWorker int32 = -1

// Event is one recorded flight-recorder entry. Events are fixed-size and
// pointer-free: the record path copies plain words into a preallocated ring
// slot, allocating nothing.
type Event struct {
	// Seq is the globally monotonic sequence number: events from different
	// rings merge into one total order by Seq. The counter is bumped with a
	// single atomic add per event, and every inter-ring causality the
	// checker relies on (ready before push, push before pop) spans a
	// synchronises-with edge, so causally ordered events always have
	// ascending Seq.
	Seq uint64 `json:"seq"`
	// Time is the event's timestamp (UnixNano): wall time at the
	// recorder's New plus the monotonic time since, read when the event is
	// recorded. It rises with Seq within one ring, not across rings: the
	// submit lane's block-reserved sequences sort a lane event before
	// older events of other rings (see RecordLane), so a time window is a
	// filter over a merged timeline, never a prefix cut (Recorder.Tail).
	Time int64 `json:"time_unix_ns"`
	// Kind is the event type.
	Kind Kind `json:"kind"`
	// Worker is the recording worker, or ExternalWorker for submit-path
	// events.
	Worker int32 `json:"worker"`
	// Task is the subject task's ID (0 for park/wake).
	Task uint64 `json:"task"`
	// Arg is kind-specific: the task's claim word for lifecycle events.
	Arg uint64 `json:"arg"`
	// Arg2 is kind-specific: priority for ready, PackDispatch for dispatch,
	// 0 for complete. A complete's bit 0 is retired: it marked a chain
	// hand-off whose dispatch event the runtime elided, and older dumps
	// still carry it. Every dispatch is recorded now and the verifier
	// ignores the bit, so a flagged ready→complete is a DispatchNotReady
	// violation like any other.
	Arg2 uint64 `json:"arg2"`
}

// ClaimGen extracts the record generation from a claim word carried in
// Event.Arg (claim = gen<<1, mirroring the runtime's layout). Bit 0 is
// retired: it was the CATS heap's dispatch-claim bit, set in the dispatch,
// complete, fault and retry events of a CATS run recorded before PR 22 and
// always zero since; ClaimGen drops it, so old dumps decode unchanged.
func ClaimGen(claim uint64) uint64 { return claim >> 1 }

// Dispatch Arg2 layout: flag bits in the low byte, then two 16-bit counts.
const (
	dispatchStolenBit   = 1 << 0
	dispatchFromCritBit = 1 << 1
	dispatchSatShift    = 16
	dispatchFastNShift  = 32
	dispatchCountMask   = 0xffff
)

// PackDispatch encodes the placement facts of a dispatch into Event.Arg2:
// whether the task was stolen, whether it came off the CATS crit heap, and
// — for crit dispatches — the fast-class saturation count and fast-class
// size at the decision, which the verifier checks against the class-gating
// invariant (a slow worker may take crit work only at sat == fastN).
func PackDispatch(stolen, fromCrit bool, sat, fastN int) uint64 {
	var v uint64
	if stolen {
		v |= dispatchStolenBit
	}
	if fromCrit {
		v |= dispatchFromCritBit
	}
	v |= (uint64(sat) & dispatchCountMask) << dispatchSatShift
	v |= (uint64(fastN) & dispatchCountMask) << dispatchFastNShift
	return v
}

// DispatchInfo decodes a PackDispatch word.
func DispatchInfo(arg2 uint64) (stolen, fromCrit bool, sat, fastN int) {
	return arg2&dispatchStolenBit != 0,
		arg2&dispatchFromCritBit != 0,
		int((arg2 >> dispatchSatShift) & dispatchCountMask),
		int((arg2 >> dispatchFastNShift) & dispatchCountMask)
}

// The fault classes carried in a KindFault event's PackFault word.
const (
	// FaultPanic: the body panicked and the worker recovered it.
	FaultPanic = 1 + iota
	// FaultError: the body returned a non-nil error.
	FaultError
	// FaultDeadline: the body overran its TaskSpec.Deadline.
	FaultDeadline
)

// Fault/retry Arg2 layout: class (or max) in the low byte range, attempt
// above it.
const (
	faultClassMask    = 0xff
	faultAttemptShift = 8
	faultAttemptMask  = 0xffff
	retryMaxShift     = 24
)

// PackFault encodes a failed attempt into Event.Arg2: the fault class
// (FaultPanic/FaultError/FaultDeadline) and the 0-based attempt index that
// failed.
func PackFault(class, attempt int) uint64 {
	return uint64(class)&faultClassMask |
		(uint64(attempt)&faultAttemptMask)<<faultAttemptShift
}

// PackRetry encodes a re-arm into Event.Arg2: the new attempt count
// (1-based: the number of failed attempts consumed so far) and the
// policy's Max.
func PackRetry(attempt, max int) uint64 {
	return (uint64(attempt)&faultAttemptMask)<<faultAttemptShift |
		(uint64(max)&faultAttemptMask)<<retryMaxShift
}

// RetryInfo decodes a PackRetry word.
func RetryInfo(arg2 uint64) (attempt, max int) {
	return int((arg2 >> faultAttemptShift) & faultAttemptMask),
		int((arg2 >> retryMaxShift) & faultAttemptMask)
}
