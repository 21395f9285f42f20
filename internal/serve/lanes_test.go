package serve_test

import (
	"context"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/servetest"
)

// awaitDone fails the test unless the job reaches "done" within the budget.
func awaitDone(t *testing.T, c *servetest.Client, id string) {
	t.Helper()
	if st, err := c.Await(id, 10*time.Second); err != nil || st.State != "done" {
		t.Fatalf("job %s: %v %+v", id, err, st)
	}
}

// wantState fails the test unless the job is in the given state right now.
func wantState(t *testing.T, c *servetest.Client, id, want string) {
	t.Helper()
	st, err := c.Job(id, 0)
	if err != nil {
		t.Fatalf("job %s: %v", id, err)
	}
	if st.State != want {
		t.Fatalf("job %s = %q, want %q", id, st.State, want)
	}
}

// TestLaneCapHoldsNothingAbove: the running cap counts a lane's own jobs
// and the more privileged lanes', never the lanes below. Telemetry jobs
// holding MaxRunningJobs slots cap telemetry and nothing else; a data lane
// at the cap holds data and telemetry back and lets control through. Gate
// jobs hold the slots (and four of the five workers), so every state below
// is reached with the gates shut.
func TestLaneCapHoldsNothingAbove(t *testing.T) {
	g := newGates()
	h := servetest.Start(t, serve.Config{
		Workers:        5,
		MaxRunningJobs: 2,
		Ops:            map[string]serve.Op{"gate": g.op},
	})
	c := h.Client("t0")

	// Two telemetry jobs take both slots; a third waits: the cap binds
	// inside a lane.
	t1 := c.MustSubmit(t, gateGraph(1, "telemetry"))
	t2 := c.MustSubmit(t, gateGraph(2, "telemetry"))
	waitEntered(t, g, 1)
	waitEntered(t, g, 2)
	t3 := c.MustSubmit(t, noopGraph(1, "telemetry"))

	// A data job submitted behind them is launched and finishes.
	awaitDone(t, c, c.MustSubmit(t, noopGraph(2, "data")))
	wantState(t, c, t3, "queued")

	// Two data jobs cap the data lane; a third waits, a control job does not.
	d2 := c.MustSubmit(t, gateGraph(3, "data"))
	d3 := c.MustSubmit(t, gateGraph(4, "data"))
	waitEntered(t, g, 3)
	waitEntered(t, g, 4)
	d4 := c.MustSubmit(t, noopGraph(1, "data"))
	awaitDone(t, c, c.MustSubmit(t, noopGraph(2, "control")))
	wantState(t, c, t3, "queued")
	wantState(t, c, d4, "queued")

	page, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"raa_serve_jobs_running 4",
		"raa_serve_jobs_pending 2",
		`raa_serve_lane_jobs_running{lane="control"} 0`,
		`raa_serve_lane_jobs_running{lane="data"} 2`,
		`raa_serve_lane_jobs_running{lane="telemetry"} 2`,
		`raa_serve_lane_jobs_pending{lane="control"} 0`,
		`raa_serve_lane_jobs_pending{lane="data"} 1`,
		`raa_serve_lane_jobs_pending{lane="telemetry"} 1`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}

	for gate := int64(1); gate <= 4; gate++ {
		g.Open(gate)
	}
	for _, id := range []string{t1, t2, t3, d2, d3, d4} {
		awaitDone(t, c, id)
	}
}

// TestPoolKeepsLaneThenLaunchOrder: inside the pool a job waits for nothing
// ranked below it. On a one-worker pool an old telemetry job T holds the
// worker in its gated source while two data diamonds, A then B, are
// launched behind it. When the gate opens the worker must walk A to its
// sink before it touches B (launch order within a lane — not B's source
// before A's sink, which is what a per-task bottom-level boost over a flat
// lane hint gives), and both before the rest of T (the lane outranks the
// launch order).
func TestPoolKeepsLaneThenLaunchOrder(t *testing.T) {
	var mu sync.Mutex
	var log []int64
	g := newGates()
	h := servetest.Start(t, serve.Config{
		Workers:        1,
		MaxRunningJobs: 8,
		Ops: map[string]serve.Op{
			"gate": g.op,
			"log": func(_ context.Context, amount int64) error {
				mu.Lock()
				log = append(log, amount)
				mu.Unlock()
				return nil
			},
		},
	})
	c := h.Client("t0")
	// diamond is source → two middles → sink; task k of job n logs 10n+k.
	diamond := func(lane, sourceOp string, n int64) serve.GraphRequest {
		dep := func(key, mode string) serve.DepRequest { return serve.DepRequest{Key: key, Mode: mode} }
		return serve.GraphRequest{Lane: lane, Tasks: []serve.TaskRequest{
			{Op: sourceOp, Amount: 10 * n, Deps: []serve.DepRequest{dep("s", "out")}},
			{Op: "log", Amount: 10*n + 1, Deps: []serve.DepRequest{dep("s", "in"), dep("l", "out")}},
			{Op: "log", Amount: 10*n + 2, Deps: []serve.DepRequest{dep("s", "in"), dep("r", "out")}},
			{Op: "log", Amount: 10*n + 3, Deps: []serve.DepRequest{dep("l", "in"), dep("r", "in")}},
		}}
	}
	tel := c.MustSubmit(t, diamond("telemetry", "gate", 1))
	waitEntered(t, g, 10)
	a := c.MustSubmit(t, diamond("data", "log", 2))
	b := c.MustSubmit(t, diamond("data", "log", 3))
	// All three must be in the pool before the worker is let go. The
	// dispatcher launches one job at a time, so once a sentinel submitted
	// after B is running, B's launch has returned. (The sentinel ranks
	// last and logs nothing.)
	last := c.MustSubmit(t, noopGraph(1, "telemetry"))
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		st, err := c.Job(last, 0)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sentinel job stuck in %q", st.State)
		}
	}
	g.Open(10)
	for _, id := range []string{tel, a, b, last} {
		awaitDone(t, c, id)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []int64{20, 21, 22, 23, 30, 31, 32, 33, 11, 12, 13}; !slices.Equal(log, want) {
		t.Fatalf("execution order %v, want %v", log, want)
	}
}

// TestDrainReapsCancelledEntryBehindCap: a drain must get past a queue
// entry the dispatcher cannot pop yet. The telemetry lane is capped, a
// third telemetry job is cancelled while queued — finished, its entry still
// in the queue — and Drain begins: the dispatcher has a pending entry and
// nothing launchable, waits, and reaps the entry once the lane uncaps.
func TestDrainReapsCancelledEntryBehindCap(t *testing.T) {
	g := newGates()
	h := servetest.Start(t, serve.Config{
		Workers:        2,
		MaxRunningJobs: 2,
		Ops:            map[string]serve.Op{"gate": g.op},
	})
	c := h.Client("t0")
	t1 := c.MustSubmit(t, gateGraph(1, "telemetry"))
	t2 := c.MustSubmit(t, gateGraph(2, "telemetry"))
	waitEntered(t, g, 1)
	waitEntered(t, g, 2)
	t3 := c.MustSubmit(t, noopGraph(1, "telemetry"))
	if st, err := c.Cancel(t3); err != nil || st.State != "cancelled" {
		t.Fatalf("cancel queued: %v %+v", err, st)
	}

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drainErr <- h.Server.Drain(ctx)
	}()
	waitHealth(t, c, http.StatusServiceUnavailable)
	select {
	case err := <-drainErr:
		t.Fatalf("drain completed with gates closed: %v", err)
	default:
	}
	g.Open(1)
	g.Open(2)
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	wantState(t, c, t1, "done")
	wantState(t, c, t2, "done")
	wantState(t, c, t3, "cancelled")
}
