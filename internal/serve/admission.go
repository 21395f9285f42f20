package serve

// Verdict is the admission controller's decision for one submission.
type Verdict uint8

// The admission verdicts. Admit queues the job; Defer asks the client to
// retry after a delay (503 + Retry-After — the condition clears when work
// drains: quota tokens return, the pool backlog or the tenant queue
// shrinks); Reject refuses outright (429) only what waiting cannot fix —
// a graph larger than the whole quota, or a tenant queue with no slot
// left; Unavailable is the draining server's terminal 503.
const (
	// VerdictAdmit: the job is accepted and queued.
	VerdictAdmit Verdict = iota
	// VerdictDefer: transient pressure — retry after the advertised delay.
	VerdictDefer
	// VerdictReject: the graph exceeds the quota or the queue is full.
	VerdictReject
	// VerdictUnavailable: the server is draining and admits nothing.
	VerdictUnavailable
)

// String renders the verdict for metrics labels and logs.
func (v Verdict) String() string {
	switch v {
	case VerdictAdmit:
		return "admit"
	case VerdictDefer:
		return "defer"
	case VerdictReject:
		return "reject"
	case VerdictUnavailable:
		return "unavailable"
	default:
		return "verdict(?)"
	}
}

// backlogPerWorker is each lane's overload bound in pool-backlog tasks per
// worker: a data submission defers while the pool holds 256·Workers
// outstanding tasks, a telemetry one already at 64·Workers, and control
// (0) never defers on backlog.
var backlogPerWorker = [laneCount]int64{LaneData: 256, LaneTelemetry: 64}

// inReserve reports whether a tenant queue's depth has reached the
// control-lane reserve: the last quarter of its capacity, which data and
// telemetry submissions may not take.
func inReserve(depth, capacity int) bool { return depth >= capacity-capacity/4 }

// admissionInputs is everything the admission ladder looks at, gathered
// under the server's lock so one decision sees one consistent snapshot.
type admissionInputs struct {
	// draining: the server has stopped admitting (graceful drain).
	draining bool
	// lane is the submission's priority lane.
	lane Lane
	// cost is the graph's token cost (its task count).
	cost int64
	// quota is the tenant's total token quota.
	quota int64
	// inFlight is the tenant's tokens currently held by admitted jobs.
	inFlight int64
	// queueDepth and queueCap describe the tenant's job queue.
	queueDepth, queueCap int
	// poolBacklog is the shared runtime's outstanding-task count, and
	// workers the pool size its per-lane bound scales with.
	poolBacklog, workers int64
}

// decision is a verdict plus the reason that produced it.
type decision struct {
	verdict Verdict
	// reason names the rule that fired, for counters and response bodies.
	reason string
}

// decide is the admission state machine: a pure function from one
// snapshot of inputs to a verdict, so every cell of the
// verdict × backlog × quota × queue-state table is testable without a
// server, a clock, or a sleep. Rules are ordered most- to least-severe;
// the first that fires wins.
//
// The ladder:
//
//	draining                                   → unavailable
//	cost > quota (can never fit)               → reject  "graph-exceeds-quota"
//	tenant queue full                          → reject  "queue-full"
//	pool backlog ≥ the lane's bound            → defer   "overload"
//	in-flight + cost > quota (fits later)      → defer   "quota"
//	queue in the control reserve, non-control  → defer   "backpressure"
//	otherwise                                  → admit
//
// Control-lane traffic is only ever stopped by the hard per-tenant limits
// (drain, queue capacity, quota) — never by shared-pool pressure or the
// reserve, so a tenant can always coordinate with the service while its
// data work is being shed.
func decide(in admissionInputs) decision {
	if in.draining {
		return decision{VerdictUnavailable, "draining"}
	}
	if in.cost > in.quota {
		return decision{VerdictReject, "graph-exceeds-quota"}
	}
	if in.queueDepth >= in.queueCap {
		return decision{VerdictReject, "queue-full"}
	}
	if per := backlogPerWorker[in.lane]; per > 0 && in.poolBacklog >= per*in.workers {
		return decision{VerdictDefer, "overload"}
	}
	if in.inFlight+in.cost > in.quota {
		return decision{VerdictDefer, "quota"}
	}
	if in.lane != LaneControl && inReserve(in.queueDepth, in.queueCap) {
		return decision{VerdictDefer, "backpressure"}
	}
	return decision{VerdictAdmit, "admit"}
}
