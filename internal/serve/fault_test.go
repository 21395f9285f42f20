package serve_test

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/serve"
	"repro/internal/serve/servetest"
)

// panicOp is a task body that panics — the tenant-supplied misbehaviour
// the panic-isolation path exists for.
func panicOp(context.Context, int64) error {
	panic("op panicked by request")
}

// flakyOps builds an op that fails its first `amount` executions (per
// graph, keyed by task name) and succeeds afterwards — the transient
// fault shape retry policies absorb.
func flakyOps() serve.Op {
	var mu sync.Mutex
	calls := map[int64]int64{}
	return func(_ context.Context, amount int64) error {
		mu.Lock()
		calls[amount]++
		n := calls[amount]
		mu.Unlock()
		if n <= amount {
			return fmt.Errorf("flaky: failure %d of %d", n, amount)
		}
		return nil
	}
}

// TestServeInvalidFaultSpecs: malformed retry/deadline/on_failure fields
// must 400 at admission, before any quota is burned.
func TestServeInvalidFaultSpecs(t *testing.T) {
	h := servetest.Start(t, serve.Config{Workers: 2})
	c := h.Client("t0")
	cases := []struct {
		name string
		req  serve.GraphRequest
	}{
		{"retry max over budget", serve.GraphRequest{Tasks: []serve.TaskRequest{
			{Op: "noop", Retry: &serve.RetrySpec{Max: serve.MaxRetryBudget + 1}},
		}}},
		{"negative retry max", serve.GraphRequest{Tasks: []serve.TaskRequest{
			{Op: "noop", Retry: &serve.RetrySpec{Max: -1}},
		}}},
		{"negative backoff", serve.GraphRequest{Tasks: []serve.TaskRequest{
			{Op: "noop", Retry: &serve.RetrySpec{Max: 1, BackoffMS: -5}},
		}}},
		{"negative max backoff", serve.GraphRequest{Tasks: []serve.TaskRequest{
			{Op: "noop", Retry: &serve.RetrySpec{Max: 1, MaxBackoffMS: -5}},
		}}},
		{"negative deadline", serve.GraphRequest{Tasks: []serve.TaskRequest{
			{Op: "noop", DeadlineMS: -1},
		}}},
		{"unknown on_failure", serve.GraphRequest{OnFailure: "explode", Tasks: []serve.TaskRequest{
			{Op: "noop"},
		}}},
	}
	for _, tc := range cases {
		sub, err := c.Submit(tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if sub.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, sub.Code)
		}
	}
}

// TestServeRetryRecovers: a transiently failing task with a retry budget
// ends done, and the job's attempts counter shows the re-executions.
func TestServeRetryRecovers(t *testing.T) {
	h := servetest.Start(t, serve.Config{
		Workers: 2,
		Ops:     map[string]serve.Op{"flaky": flakyOps()},
	})
	c := h.Client("t0")
	id := c.MustSubmit(t, serve.GraphRequest{
		Tasks: []serve.TaskRequest{{
			Name: "f", Op: "flaky", Amount: 2, // fails twice, then succeeds
			Retry: &serve.RetrySpec{Max: 3, BackoffMS: 1},
		}},
	})
	st, err := c.Await(id, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" {
		t.Fatalf("retried job = %+v, want done", st)
	}
	if st.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (2 failures + 1 success)", st.Attempts)
	}
	if st.FailureKind != "" {
		t.Fatalf("done job carries failure_kind %q", st.FailureKind)
	}
}

// TestServePanicIsolated: a panicking op fails its job with
// failure_kind "panic" — and the server (and pool) keeps serving.
func TestServePanicIsolated(t *testing.T) {
	h := servetest.Start(t, serve.Config{
		Workers: 2,
		Ops:     map[string]serve.Op{"panic": panicOp},
	})
	c := h.Client("t0")
	id := c.MustSubmit(t, serve.GraphRequest{
		Tasks: []serve.TaskRequest{{Name: "bomb", Op: "panic"}},
	})
	st, err := c.Await(id, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "failed" || st.FailureKind != "panic" {
		t.Fatalf("panic job = %+v, want failed/panic", st)
	}
	if !strings.Contains(st.Error, "panicked") {
		t.Fatalf("error %q does not name the panic", st.Error)
	}
	// The pool survived: later jobs still run.
	after := c.MustSubmit(t, noopGraph(4, "data"))
	if st, err := c.Await(after, 15*time.Second); err != nil || st.State != "done" {
		t.Fatalf("job after panic: %v %+v", err, st)
	}
	// The fault shows up on /metrics.
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{"raa_pool_panics_total", "raa_pool_quarantined_total", "raa_pool_retries_total", "raa_pool_deadline_misses_total"} {
		if !strings.Contains(m, metric) {
			t.Errorf("metrics page missing %s", metric)
		}
	}
}

// TestServeDeadlineFailureKind: a sleeping op that overruns its wire
// deadline fails promptly with failure_kind "deadline" — long before the
// sleep itself would have finished.
func TestServeDeadlineFailureKind(t *testing.T) {
	h := servetest.Start(t, serve.Config{Workers: 2})
	c := h.Client("t0")
	id := c.MustSubmit(t, serve.GraphRequest{
		Tasks: []serve.TaskRequest{{
			Name: "slow", Op: "sleep", Amount: int64(time.Minute),
			DeadlineMS: 5,
		}},
	})
	st, err := c.Await(id, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "failed" || st.FailureKind != "deadline" {
		t.Fatalf("deadline job = %+v, want failed/deadline", st)
	}
}

// TestServeFailurePolicies: with the default "continue" policy the rest
// of the graph runs after a failure; with "fail_fast" the first failure
// cancels the job's unstarted tasks.
func TestServeFailurePolicies(t *testing.T) {
	var ran sync.Map
	mark := func(_ context.Context, amount int64) error {
		ran.Store(amount, true)
		return nil
	}
	h := servetest.Start(t, serve.Config{
		Workers:        1, // serialise: the failing task runs before the marks
		MaxRunningJobs: 1,
		Ops:            map[string]serve.Op{"mark": mark},
	})
	c := h.Client("t0")

	// continue (default): the marks still run.
	id := c.MustSubmit(t, serve.GraphRequest{
		Tasks: []serve.TaskRequest{
			{Name: "boom", Op: "fail", Deps: []serve.DepRequest{{Key: "k", Mode: "out"}}},
			{Op: "mark", Amount: 1, Deps: []serve.DepRequest{{Key: "k", Mode: "in"}}},
		},
	})
	st, err := c.Await(id, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "failed" || st.FailureKind != "error" {
		t.Fatalf("continue job = %+v, want failed/error", st)
	}
	if _, ok := ran.Load(int64(1)); !ok {
		t.Fatal("continue policy skipped the successor")
	}

	// fail_fast: the successor is cancelled, not run.
	id = c.MustSubmit(t, serve.GraphRequest{
		OnFailure: "fail_fast",
		Tasks: []serve.TaskRequest{
			{Name: "boom", Op: "fail", Deps: []serve.DepRequest{{Key: "k", Mode: "out"}}},
			{Op: "mark", Amount: 2, Deps: []serve.DepRequest{{Key: "k", Mode: "in"}}},
		},
	})
	st, err = c.Await(id, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "failed" {
		t.Fatalf("fail_fast job = %+v, want failed", st)
	}
	if _, ok := ran.Load(int64(2)); ok {
		t.Fatal("fail_fast policy still ran the successor")
	}
}

// TestServeChaosStorm is the service-level survival drill: many tenants
// hammer the server while a seeded injector makes a deterministic
// fraction of task bodies panic, fail, or stall. The server must stay
// alive and healthy, and every admitted job must reach exactly one
// terminal state.
func TestServeChaosStorm(t *testing.T) {
	h := servetest.Start(t, serve.Config{
		Workers:     4,
		TenantQuota: 1 << 20, // the drill is fault recovery, not admission
		QueueCap:    1 << 10,
		Chaos: &chaos.Config{
			Seed:       99,
			PanicRate:  0.03,
			ErrorRate:  0.03,
			DelayRate:  0.02,
			StickyRate: 0.3,
			Delay:      2 * time.Millisecond,
		},
	})
	const (
		tenants = 4
		jobs    = 12
		tasks   = 8
	)
	graph := func() serve.GraphRequest {
		g := serve.GraphRequest{}
		for i := 0; i < tasks; i++ {
			tr := serve.TaskRequest{
				Op:     "spin",
				Amount: 64,
				Retry:  &serve.RetrySpec{Max: 2, BackoffMS: 1, MaxBackoffMS: 2},
			}
			if i%2 == 0 {
				tr.Deps = []serve.DepRequest{{Key: "chain", Mode: "inout"}}
			}
			if i%4 == 1 {
				tr.DeadlineMS = 1 // shorter than the injected 2ms stall
			}
			g.Tasks = append(g.Tasks, tr)
		}
		return g
	}

	var wg sync.WaitGroup
	ids := make([][]string, tenants)
	for tn := 0; tn < tenants; tn++ {
		wg.Add(1)
		go func(tn int) {
			defer wg.Done()
			c := h.Client(fmt.Sprintf("tenant-%d", tn))
			for j := 0; j < jobs; j++ {
				ids[tn] = append(ids[tn], c.MustSubmit(t, graph()))
			}
		}(tn)
	}
	wg.Wait()

	terminal := map[string]int{}
	for tn := 0; tn < tenants; tn++ {
		c := h.Client(fmt.Sprintf("tenant-%d", tn))
		for _, id := range ids[tn] {
			st, err := c.Await(id, 60*time.Second)
			if err != nil {
				t.Fatalf("job %s never terminal under chaos: %v", id, err)
			}
			terminal[st.State]++
			if st.State == "failed" && st.FailureKind == "" {
				t.Errorf("failed job %s has no failure_kind", id)
			}
		}
	}
	if got := terminal["done"] + terminal["failed"] + terminal["cancelled"]; got != tenants*jobs {
		t.Fatalf("terminal states %v cover %d jobs, want %d", terminal, got, tenants*jobs)
	}
	if terminal["done"] == 0 || terminal["failed"] == 0 {
		t.Fatalf("storm verdicts %v — expected both survivals and failures under the schedule", terminal)
	}
	// The server is still healthy after the storm.
	if code, err := h.Client("t0").Healthz(); err != nil || code != http.StatusOK {
		t.Fatalf("healthz after storm: %d %v", code, err)
	}
}

// TestServeCancelEndsRetryBackoff: a job cancelled while its task waits
// out an hour-long retry backoff is cancelled at once, and Close does not
// wait out the hour either — a pending backoff would otherwise pin the
// tenant's quota, a running-cap slot and shutdown for as long as the
// tenant asked.
func TestServeCancelEndsRetryBackoff(t *testing.T) {
	h, err := servetest.New(serve.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := h.Client("t0")
	id := c.MustSubmit(t, serve.GraphRequest{Tasks: []serve.TaskRequest{{
		Op: "fail", Retry: &serve.RetrySpec{Max: 1, BackoffMS: 3_600_000},
	}}})
	for start := time.Now(); h.Server.Runtime().Stats().Retries == 0; time.Sleep(time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatal("the first attempt never failed into its backoff")
		}
	}
	time.Sleep(20 * time.Millisecond)
	if _, err := c.Cancel(id); err != nil {
		t.Fatal(err)
	}
	st, err := c.Job(id, 100*time.Millisecond)
	if err != nil || st.State != "cancelled" || st.Attempts != 1 {
		t.Errorf("100 ms after cancel: %+v %v, want cancelled after 1 attempt", st, err)
	}
	// Not a cleanup: one blocked behind the backoff would hang the binary.
	closed := make(chan struct{})
	go func() { h.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Error("Close still blocked 5 s in, behind the cancelled job's backoff")
	}
}
