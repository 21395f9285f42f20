package serve_test

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/servetest"
)

// TestServeDependenceOrder: a chain a→b→c through shared keys must
// execute in program order on the shared pool, observed through an op
// that records its task name.
func TestServeDependenceOrder(t *testing.T) {
	var mu sync.Mutex
	var order []int64
	record := func(_ context.Context, amount int64) error {
		mu.Lock()
		order = append(order, amount)
		mu.Unlock()
		return nil
	}
	h := servetest.Start(t, serve.Config{
		Workers: 4,
		Ops:     map[string]serve.Op{"record": record},
	})
	c := h.Client("t0")
	id := c.MustSubmit(t, serve.GraphRequest{
		Tasks: []serve.TaskRequest{
			{Op: "record", Amount: 1, Deps: []serve.DepRequest{{Key: "x", Mode: "out"}}},
			{Op: "record", Amount: 2, Deps: []serve.DepRequest{{Key: "x", Mode: "inout"}}},
			{Op: "record", Amount: 3, Deps: []serve.DepRequest{{Key: "x", Mode: "in"}}},
		},
	})
	st, err := c.Await(id, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.Tasks != 3 {
		t.Fatalf("status = %+v, want done/3 tasks", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("execution order %v, want [1 2 3]", order)
	}
}

// TestServeJobIsolation: two jobs using the same dependence key names
// must not serialise against each other — keys are job-local cells. Two
// gate tasks that would deadlock-order under a shared key run
// concurrently instead.
func TestServeJobIsolation(t *testing.T) {
	g := newGates()
	h := servetest.Start(t, serve.Config{
		Workers:        2,
		MaxRunningJobs: 2,
		Ops:            map[string]serve.Op{"gate": g.op},
	})
	c := h.Client("t0")
	gateWithKey := func(gate int64) serve.GraphRequest {
		return serve.GraphRequest{
			Tasks: []serve.TaskRequest{
				{Op: "gate", Amount: gate, Deps: []serve.DepRequest{{Key: "shared", Mode: "inout"}}},
			},
		}
	}
	j1 := c.MustSubmit(t, gateWithKey(1))
	j2 := c.MustSubmit(t, gateWithKey(2))
	// Both gates are entered concurrently: with a shared key, job 2's
	// task would be blocked behind job 1's unopened gate.
	waitEntered(t, g, 1)
	waitEntered(t, g, 2)
	g.Open(1)
	g.Open(2)
	for _, id := range []string{j1, j2} {
		if st, err := c.Await(id, 15*time.Second); err != nil || st.State != "done" {
			t.Fatalf("job %s: %v %+v", id, err, st)
		}
	}
}

// TestServeSameKeyNamesOrderWithinJobsOnly: two jobs in the pool at once
// use the same key names. Each job's keys are its own cells, so neither
// job waits for the other — both gates are entered with the other still
// shut — while inside each job the reader still waits for its writer.
func TestServeSameKeyNamesOrderWithinJobsOnly(t *testing.T) {
	g := newGates()
	var mu sync.Mutex
	var ran []int64
	h := servetest.Start(t, serve.Config{
		Workers:        4,
		MaxRunningJobs: 2,
		Ops: map[string]serve.Op{
			"gate": g.op,
			"record": func(_ context.Context, amount int64) error {
				mu.Lock()
				ran = append(ran, amount)
				mu.Unlock()
				return nil
			},
		},
	})
	c := h.Client("t0")
	gatedChain := func(n int64) serve.GraphRequest {
		return serve.GraphRequest{Tasks: []serve.TaskRequest{
			{Op: "gate", Amount: n, Deps: []serve.DepRequest{{Key: "x", Mode: "out"}, {Key: "y", Mode: "inout"}}},
			{Op: "record", Amount: n, Deps: []serve.DepRequest{{Key: "x", Mode: "in"}, {Key: "y", Mode: "inout"}}},
		}}
	}
	var subs [2]servetest.Submission
	var errs [2]error
	var wg sync.WaitGroup
	for i := range subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			subs[i], errs[i] = c.Submit(gatedChain(int64(i + 1)))
		}()
	}
	wg.Wait()
	var ids [2]string
	for i, sub := range subs {
		if errs[i] != nil || !sub.Admitted() {
			t.Fatalf("job %d: %v, status %d", i+1, errs[i], sub.Code)
		}
		ids[i] = sub.Response.Job
	}
	waitEntered(t, g, 1)
	waitEntered(t, g, 2)
	mu.Lock()
	early := len(ran)
	mu.Unlock()
	if early != 0 {
		t.Fatalf("%d readers ran before their job's writer finished", early)
	}
	// Finish job 2 while job 1's writer is still inside its gate.
	g.Open(2)
	if st, err := c.Await(ids[1], 15*time.Second); err != nil || st.State != "done" {
		t.Fatalf("job 2: %v %+v", err, st)
	}
	mu.Lock()
	got := append([]int64(nil), ran...)
	mu.Unlock()
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("with job 1 gated, readers ran = %v, want [2]", got)
	}
	g.Open(1)
	if st, err := c.Await(ids[0], 15*time.Second); err != nil || st.State != "done" {
		t.Fatalf("job 1: %v %+v", err, st)
	}
}

// TestServeFailAndCancel covers the two non-done terminals: a failing
// op marks the job failed with its error, and cancelling a running job
// lands it in cancelled with its in-flight op unblocked by the context.
func TestServeFailAndCancel(t *testing.T) {
	g := newGates()
	h := servetest.Start(t, serve.Config{
		Workers: 2,
		Ops:     map[string]serve.Op{"gate": g.op},
	})
	c := h.Client("t0")

	fail := c.MustSubmit(t, serve.GraphRequest{
		Tasks: []serve.TaskRequest{{Name: "boom", Op: "fail"}},
	})
	st, err := c.Await(fail, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "failed" || !strings.Contains(st.Error, "failed by request") {
		t.Fatalf("fail job = %+v, want failed with error", st)
	}

	// Cancel a running job: the gate op returns ctx.Err.
	run := c.MustSubmit(t, gateGraph(9, "data"))
	waitEntered(t, g, 9)
	if _, err := c.Cancel(run); err != nil {
		t.Fatal(err)
	}
	st, err = c.Await(run, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "cancelled" {
		t.Fatalf("cancelled running job = %q, want cancelled", st.State)
	}

	// Cancelling a terminal job is a no-op that reports the final state.
	st, err = c.Cancel(run)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "cancelled" {
		t.Fatalf("re-cancel = %q, want cancelled", st.State)
	}
}

// TestServeCancelQueued: a job cancelled before dispatch finishes
// immediately, releases its tokens, and is reaped (never executed) when
// the dispatcher reaches its queue slot.
func TestServeCancelQueued(t *testing.T) {
	g := newGates()
	h := servetest.Start(t, serve.Config{
		Workers:        1,
		MaxRunningJobs: 1,
		Ops:            map[string]serve.Op{"gate": g.op},
	})
	c := h.Client("t0")
	plug := c.MustSubmit(t, gateGraph(1, "data"))
	waitEntered(t, g, 1)
	queued := c.MustSubmit(t, noopGraph(1, "data"))
	st, err := c.Cancel(queued)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "cancelled" {
		t.Fatalf("cancel queued = %q, want cancelled immediately", st.State)
	}
	g.Open(1)
	if st, err := c.Await(plug, 15*time.Second); err != nil || st.State != "done" {
		t.Fatalf("plug: %v %+v", err, st)
	}
}

// TestServeBadRequests pins the 400/404 surface.
func TestServeBadRequests(t *testing.T) {
	h := servetest.Start(t, serve.Config{Workers: 1, MaxGraphTasks: 4})
	c := h.Client("t0")
	for name, g := range map[string]serve.GraphRequest{
		"empty graph":  {},
		"unknown op":   {Tasks: []serve.TaskRequest{{Op: "warp"}}},
		"unknown lane": {Lane: "bulk", Tasks: []serve.TaskRequest{{Op: "noop"}}},
		"bad dep mode": {Tasks: []serve.TaskRequest{{Op: "noop", Deps: []serve.DepRequest{{Key: "k", Mode: "rw"}}}}},
		"empty key":    {Tasks: []serve.TaskRequest{{Op: "noop", Deps: []serve.DepRequest{{Mode: "in"}}}}},
		"too large":    noopGraph(5, "data"),
		"negative":     {Tasks: []serve.TaskRequest{{Op: "spin", Amount: -1}}},
	} {
		sub, err := c.Submit(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sub.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, sub.Code)
		}
	}
	// Missing tenant.
	sub, err := h.Client("").Submit(noopGraph(1, "data"))
	if err != nil {
		t.Fatal(err)
	}
	if sub.Code != http.StatusBadRequest {
		t.Errorf("missing tenant: status %d, want 400", sub.Code)
	}
	// Unknown job.
	if _, err := c.Job("j-404", 0); err == nil {
		t.Error("unknown job status did not error")
	}
	if _, err := c.Cancel("j-404"); err == nil {
		t.Error("unknown job cancel did not error")
	}
}

// TestServeBackpressureAndQueueFull drives the queue's two rungs end to
// end: queue in the control reserve (its last quarter) → data deferred
// with Retry-After, control still admitted; queue at cap → rejected;
// queue drained below the reserve → data admitted again, with no low mark
// to wait for. /metrics' backpressured gauge reads 1 exactly inside the
// reserve. Dispatch is plugged so queue depth is exact at every step — by
// a control-lane job, the only kind that holds every lane back (see
// TestLaneCapHoldsNothingAbove).
func TestServeBackpressureAndQueueFull(t *testing.T) {
	g := newGates()
	h := servetest.Start(t, serve.Config{
		Workers:        1,
		MaxRunningJobs: 1,
		QueueCap:       4, // reserve: depth 3 and up
		Ops:            map[string]serve.Op{"gate": g.op},
	})
	c := h.Client("t0")
	gauge := func(want int) {
		t.Helper()
		page, err := c.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		line := fmt.Sprintf(`raa_serve_tenant_backpressured{tenant="t0"} %d`, want)
		if !strings.Contains(page, line+"\n") {
			t.Fatalf("metrics page lacks %q", line)
		}
	}

	// Plug the single dispatch slot.
	plug := c.MustSubmit(t, gateGraph(1, "control"))
	waitEntered(t, g, 1)

	// Fill the queue up to the reserve (3): all admitted.
	var queued []string
	for i := 0; i < 3; i++ {
		gauge(0)
		queued = append(queued, c.MustSubmit(t, noopGraph(1, "data")))
	}
	// Depth 3 is the reserve: data defers with Retry-After.
	gauge(1)
	sub, err := c.Submit(noopGraph(1, "data"))
	if err != nil {
		t.Fatal(err)
	}
	if sub.Code != http.StatusServiceUnavailable || sub.Response.Reason != "backpressure" || sub.RetryAfter < 1 {
		t.Fatalf("submit in the reserve = %d %s/%s retry=%d, want 503 deferred/backpressure with Retry-After",
			sub.Code, sub.Response.Status, sub.Response.Reason, sub.RetryAfter)
	}
	// Control takes the reserve and fills the queue to cap (4).
	queued = append(queued, c.MustSubmit(t, noopGraph(1, "control")))
	// At cap even control is rejected outright.
	sub, err = c.Submit(noopGraph(1, "control"))
	if err != nil {
		t.Fatal(err)
	}
	if sub.Code != http.StatusTooManyRequests || sub.Response.Reason != "queue-full" {
		t.Fatalf("submit at cap = %d %s/%s, want 429 rejected/queue-full",
			sub.Code, sub.Response.Status, sub.Response.Reason)
	}

	// Open the plug: the queue drains, and data is admitted again as soon
	// as the depth is below the reserve.
	g.Open(1)
	deadline := time.Now().Add(20 * time.Second)
	for {
		sub, err = c.Submit(noopGraph(1, "data"))
		if err != nil {
			t.Fatal(err)
		}
		if sub.Admitted() {
			break
		}
		if r := sub.Response.Reason; r != "queue-full" && r != "backpressure" {
			t.Fatalf("draining queue: verdict %d %s/%s, want queue-full or backpressure until admitted",
				sub.Code, sub.Response.Status, sub.Response.Reason)
		}
		if time.Now().After(deadline) {
			t.Fatal("data never admitted below the reserve")
		}
		time.Sleep(2 * time.Millisecond)
	}
	queued = append(queued, sub.Response.Job)
	for _, id := range append(queued, plug) {
		if st, err := c.Await(id, 15*time.Second); err != nil || st.State != "done" {
			t.Fatalf("job %s: %v %+v", id, err, st)
		}
	}
	gauge(0)
}

// TestServeQuotaDefer: a tenant whose tokens are all in flight defers
// until its work completes, then admits again; an over-quota graph is
// rejected outright. A second tenant is unaffected throughout —
// sessions are isolated.
func TestServeQuotaDefer(t *testing.T) {
	g := newGates()
	h := servetest.Start(t, serve.Config{
		Workers:        2,
		MaxRunningJobs: 2,
		TenantQuota:    4,
		Ops:            map[string]serve.Op{"gate": g.op},
	})
	a, b := h.Client("a"), h.Client("b")

	// 4 tokens in flight, blocked on a gate.
	hold := a.MustSubmit(t, serve.GraphRequest{
		Tasks: []serve.TaskRequest{
			{Op: "gate", Amount: 1},
			{Op: "noop"}, {Op: "noop"}, {Op: "noop"},
		},
	})
	waitEntered(t, g, 1)

	sub, err := a.Submit(noopGraph(1, "data"))
	if err != nil {
		t.Fatal(err)
	}
	if sub.Code != http.StatusServiceUnavailable || sub.Response.Reason != "quota" {
		t.Fatalf("submit with quota exhausted = %d %s/%s, want 503 deferred/quota",
			sub.Code, sub.Response.Status, sub.Response.Reason)
	}
	// A graph that can never fit is a reject, not a defer.
	sub, err = a.Submit(noopGraph(5, "data"))
	if err != nil {
		t.Fatal(err)
	}
	if sub.Code != http.StatusTooManyRequests || sub.Response.Reason != "graph-exceeds-quota" {
		t.Fatalf("oversized graph = %d %s/%s, want 429 rejected/graph-exceeds-quota",
			sub.Code, sub.Response.Status, sub.Response.Reason)
	}
	// Tenant b's quota is its own.
	bid := b.MustSubmit(t, noopGraph(4, "data"))
	if st, err := b.Await(bid, 15*time.Second); err != nil || st.State != "done" {
		t.Fatalf("tenant b: %v %+v", err, st)
	}

	// Tokens return at job completion; a is admitted again.
	g.Open(1)
	if st, err := a.Await(hold, 15*time.Second); err != nil || st.State != "done" {
		t.Fatalf("hold: %v %+v", err, st)
	}
	if id := a.MustSubmit(t, noopGraph(4, "data")); id == "" {
		t.Fatal("no job id")
	}
}

// TestServeMetricsPage: the exposition page carries the pool, adaptive,
// and per-tenant series with believable values.
func TestServeMetricsPage(t *testing.T) {
	h := servetest.Start(t, serve.Config{Workers: 2, FlightRecorder: true})
	c := h.Client("acme")
	id := c.MustSubmit(t, noopGraph(3, "data"))
	if st, err := c.Await(id, 15*time.Second); err != nil || st.State != "done" {
		t.Fatalf("job: %v %+v", err, st)
	}
	page, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE raa_pool_submitted_total counter",
		"raa_pool_submitted_total 3",
		"raa_pool_executed_total 3",
		"raa_pool_backlog 0",
		"raa_pool_flight_events_total",
		`raa_worker_executed_total{worker="0"}`,
		`raa_serve_admission_total{verdict="admit"} 1`,
		`raa_serve_admission_total{verdict="reject"} 0`,
		`raa_serve_tenant_queue_depth{tenant="acme"} 0`,
		`raa_serve_tenant_inflight_tokens{tenant="acme"} 0`,
		`raa_serve_tenant_admission_total{tenant="acme",verdict="admit"} 1`,
		`raa_serve_tenant_jobs_total{tenant="acme",state="done"} 1`,
		"raa_serve_jobs_running 0",
		"# TYPE raa_serve_lane_jobs_running gauge",
		`raa_serve_lane_jobs_running{lane="data"} 0`,
		"# TYPE raa_serve_lane_jobs_pending gauge",
		`raa_serve_lane_jobs_pending{lane="telemetry"} 0`,
		"raa_serve_draining 0",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("page:\n%s", page)
	}
}

// TestMetricsTenantLabelsRoundTrip: tenant ids arrive unvalidated (here
// through the JSON tenant field, which can carry any string), and each must
// come back out of /metrics as a label that unescapes to the id itself
// under the exposition format's three escapes — so no two ids share a
// label, and the page has no escape a strict parser does not know.
func TestMetricsTenantLabelsRoundTrip(t *testing.T) {
	h := servetest.Start(t, serve.Config{Workers: 1})
	ids := []string{"plain", "a\nb", `a\nb`, "a\tb", "a\x00b", "a\u200bb", `a"b`, `a\"b`, `a\\b`, "a\\\nb"}
	anon := h.Client("") // no header: the tenant comes from the body
	for _, id := range ids {
		g := noopGraph(1, "data")
		g.Tenant = id
		if sub, err := anon.Submit(g); err != nil || !sub.Admitted() {
			t.Fatalf("tenant %q: %v, status %d", id, err, sub.Code)
		}
	}
	page, err := anon.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	const prefix = `raa_serve_tenant_queue_depth{tenant="`
	seen := map[string]bool{}
	for _, line := range strings.Split(page, "\n") {
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			continue
		}
		id, tail := unescapeLabel(t, rest)
		if !strings.HasPrefix(tail, "} ") {
			t.Fatalf("label of %q is followed by %q, want the sample value", id, tail)
		}
		if seen[id] {
			t.Errorf("two queue-depth samples unescape to tenant %q", id)
		}
		seen[id] = true
	}
	for _, id := range ids {
		if !seen[id] {
			t.Errorf("no queue-depth sample unescapes to tenant %q", id)
		}
	}
	if len(seen) != len(ids) {
		t.Errorf("%d distinct tenant labels for %d tenants", len(seen), len(ids))
	}
	if t.Failed() {
		t.Logf("page:\n%s", page)
	}
}

// unescapeLabel reads one label value up to its closing quote, undoing the
// three escapes the exposition format defines (\\, \", \n) and failing on
// any other. It returns the value and what follows the quote.
func unescapeLabel(t *testing.T, s string) (string, string) {
	t.Helper()
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			return b.String(), s[i+1:]
		case '\\':
			if i++; i == len(s) {
				break
			}
			switch s[i] {
			case '\\', '"':
				b.WriteByte(s[i])
			case 'n':
				b.WriteByte('\n')
			default:
				t.Fatalf("escape \\%c is not in the exposition format: %q", s[i], s)
			}
		default:
			b.WriteByte(s[i])
		}
	}
	t.Fatalf("unterminated label value: %q", s)
	return "", ""
}
