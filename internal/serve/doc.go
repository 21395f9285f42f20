// Package serve is the runtime's network front end: a multi-tenant task
// service that accepts JSON task graphs over HTTP and runs them on one
// shared pool (package internal/runtime), with the flow-control
// machinery a shared substrate needs at its service boundary.
//
// # Request path
//
// A graph enters through POST /v1/graphs and crosses four layers:
//
//	admission  → per-tenant queue  → dispatcher  → shared runtime pool
//
// Admission is a pure verdict ladder (see decide) over one locked
// snapshot: the tenant's token quota (a job holds one token per task
// until terminal), the tenant queue's depth, and the pool's backlog
// (Runtime.Backlog). The verdict is admit (202), defer (503 +
// Retry-After — transient, retry later), or reject (429 — only a graph
// larger than the whole quota, or a full queue). A draining server
// answers 503 for everything new. The ladder has no state of its own and
// two sizes (quota, queue capacity): the backlog bounds scale with the
// pool's workers, and the reserve with the queue.
//
// Admitted jobs wait in their tenant's bounded queue, partitioned into
// three priority lanes (control > data > telemetry). The last quarter of
// the queue is the control lane's reserve: data and telemetry submissions
// defer with "backpressure" while the queue is that full, and are
// admitted again as soon as it is not. The control lane also never
// defers on pool backlog, where telemetry defers at a quarter of data's
// bound — a tenant can always coordinate with the service while its
// bulk work is being shed.
//
// The dispatcher is one goroutine that moves jobs into the pool: lanes
// in strict priority order, round-robin across tenants within a lane —
// a greedy tenant saturates its own queue, not its neighbours' latency
// — and a job only while fewer than Config.MaxRunningJobs jobs of its
// own and the more privileged lanes are running (which is what gives
// the queues real depth, without letting a lower lane's jobs hold a
// higher lane's back). The pool keeps the same order: every task of a
// job carries one submit-priority hint, lane rank first and launch
// order second (poolHint), so a criticality-aware scheduler works on
// the oldest launched job of the highest lane first. A job waits for
// nothing ranked below it, at any of the three stages.
//
// Per-job completion over the shared pool rides the runtime's
// TaskSpec.OnDone hook: every task of a graph accounts itself exactly
// once (executed or skipped), the last one closing the job. A graph's
// dependence keys are interned to cells of the job's own key slab and
// reach the shared dependence tracker as addresses, so tenants cannot
// construct cross-job hazards there. Graphs are validated before
// admission and lowered to runtime specs only when the dispatcher
// launches them. A request is decoded through a pooled json.Decoder into a
// pooled wire form whose arrays are cleared and kept between uses, so a
// POST allocates per request, not per JSON field.
//
// The built-in sleep op, the stand-in for a body that waits on I/O, keeps
// the time it is given, and so does a sub-second long-poll: both wait
// through internal/alarm, because an idle Go process otherwise waits for
// its next timer in a millisecond-rounded epoll_wait, and a 500 µs sleep
// held its worker for ~1.07 ms. Nor does the sleep hold a worker at all:
// it asks runtime.CompleteAfter for its wait and returns, and its task
// completes when the wait ends, so a pool of two runs a job's six
// independent sleeps at once. A deadline-bound sleep waits in place, where
// its deadline can end it. Cancelling a job also ends any wait or retry
// backoff its tasks are parked in.
//
// # Lifecycle and observability
//
// SIGTERM-style shutdown is Drain then Close: Drain stops admission
// (503), lets every admitted job finish, and returns when the
// dispatcher goes idle; Close shuts the pool down. GET /healthz flips
// to 503 at the start of a drain so load balancers stop routing first.
//
// GET /metrics exposes a Prometheus-text snapshot: the runtime's
// StatsInto counters, admission verdicts, per-tenant queue depths,
// reserve state and token usage, and jobs running and pending by
// lane. With Config.FlightRecorder, the server stamps
// request-scoped timeline markers (admit/launch/done, tagged with the
// job number and a tenant hash) into the pool's flight recorder, so a
// merged timeline can be cut along request boundaries.
//
// Package servetest holds the httptest-based end-to-end harness the
// test battery and the benchmark snapshot build on.
package serve
