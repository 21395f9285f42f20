package serve_test

import (
	"testing"
	"time"

	"repro/internal/flightrec"
	"repro/internal/flightrec/verify"
	"repro/internal/serve"
	"repro/internal/serve/servetest"
)

// sleeps is a graph of n independent sleep tasks of d each.
func sleeps(n int, d time.Duration) serve.GraphRequest {
	g := serve.GraphRequest{Tasks: make([]serve.TaskRequest, n)}
	for i := range g.Tasks {
		g.Tasks[i] = serve.TaskRequest{Op: "sleep", Amount: int64(d)}
	}
	return g
}

// TestSleepsWaitInParallel: on a one-worker pool, a job of eight
// independent 20 ms sleeps ends in about one sleep, not eight — a waiting
// sleep gives its worker back (~160 ms when each held it). A loaded host
// only makes a job later, so the best of three is the figure.
func TestSleepsWaitInParallel(t *testing.T) {
	h := servetest.Start(t, serve.Config{Workers: 1})
	c := h.Client("t0")
	var took time.Duration
	for attempt := 1; attempt <= 3; attempt++ {
		st, err := c.Await(c.MustSubmit(t, sleeps(8, 20*time.Millisecond)), 10*time.Second)
		if err != nil || st.State != "done" || st.Attempts != 8 {
			t.Fatalf("job %+v %v, want done after 8 attempts", st, err)
		}
		if took = time.Duration(st.LatencyMS * float64(time.Millisecond)); took < 60*time.Millisecond {
			t.Logf("attempt %d: eight 20 ms sleeps on one worker, admit→terminal %v", attempt, took)
			return
		}
	}
	t.Fatalf("eight 20 ms sleeps on one worker: admit→terminal %v, want < 60ms", took)
}

// TestCancelEndsParkedSleeps: a job cancelled while its eight 10 s sleeps
// wait off the worker is cancelled within 50 ms, after every task accounted
// itself once, and Close does not wait the sleeps out. (That every OnDone
// hears context.Canceled is TestParkedTasksEndWithContext, in the runtime.)
func TestCancelEndsParkedSleeps(t *testing.T) {
	h, err := servetest.New(serve.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := h.Client("t0")
	id := c.MustSubmit(t, sleeps(8, 10*time.Second))
	for start := time.Now(); h.Server.Runtime().Stats().ParkedTasks != 8; time.Sleep(time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatal("the sleeps never all parked")
		}
	}
	if _, err := c.Cancel(id); err != nil {
		t.Fatal(err)
	}
	st, err := c.Job(id, 50*time.Millisecond)
	if err != nil || st.State != "cancelled" || st.Attempts != 8 {
		t.Errorf("50 ms after cancel: %+v %v, want cancelled after 8 attempts", st, err)
	}
	// Not a cleanup: one blocked behind the sleeps would hang the binary.
	closed := make(chan struct{})
	go func() { h.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Error("Close still blocked 5 s in, behind the cancelled job's sleeps")
	}
}

// TestDeadlineBoundSleepWaitsInPlace: a sleep with a wire deadline waits
// where the deadline can see it, so a 50 ms sleep under a 5 ms deadline
// still fails as a deadline miss — and is still retried under its policy.
func TestDeadlineBoundSleepWaitsInPlace(t *testing.T) {
	h := servetest.Start(t, serve.Config{Workers: 1})
	c := h.Client("t0")
	for _, retry := range []*serve.RetrySpec{nil, {Max: 1, BackoffMS: 1}} {
		id := c.MustSubmit(t, serve.GraphRequest{Tasks: []serve.TaskRequest{{
			Op: "sleep", Amount: int64(50 * time.Millisecond), DeadlineMS: 5, Retry: retry,
		}}})
		st, err := c.Await(id, 10*time.Second)
		want := int64(1)
		if retry != nil {
			want = 2
		}
		if err != nil || st.State != "failed" || st.FailureKind != "deadline" || st.Attempts != want {
			t.Errorf("retry %+v: job %+v %v, want failed/deadline after %d attempts", retry, st, err, want)
		}
	}
	if p := h.Server.Runtime().Stats().ParkedTasks; p != 0 {
		t.Errorf("%d tasks parked; a deadline-bound sleep must wait in place", p)
	}
}

// TestSleepDiamondsVerified: a flight-recorded server runs diamond-8s of
// 100 µs sleeps, two jobs at a time, under the online checker. The
// timeline is spotless, the parked tasks' complete events are on the
// external ring, and each job's markers time it: admit ≤ launch ≤ done,
// with the three sleeps of the critical path between admit and done.
func TestSleepDiamondsVerified(t *testing.T) {
	h := servetest.Start(t, serve.Config{Workers: 2, FlightRecorder: true})
	rec := h.Server.Runtime().FlightRecorder()
	online := verify.StartOnline(rec, verify.Options{
		StarveBound: 30 * time.Second,
		OnViolation: func(v verify.Violation) {
			t.Errorf("invariant violation: %s task=%d worker=%d: %s", v.Invariant, v.Task, v.Worker, v.Detail)
		},
	}, time.Millisecond)
	c := h.Client("t0")
	const d = int64(100 * time.Microsecond)
	diamond := serve.GraphRequest{Tasks: []serve.TaskRequest{{Op: "sleep", Amount: d, Deps: []serve.DepRequest{{Key: "a", Mode: "out"}}}}}
	sink := serve.TaskRequest{Op: "sleep", Amount: d}
	for m := 0; m < 6; m++ {
		b := string(rune('b' + m))
		diamond.Tasks = append(diamond.Tasks, serve.TaskRequest{Op: "sleep", Amount: d,
			Deps: []serve.DepRequest{{Key: "a", Mode: "in"}, {Key: b, Mode: "out"}}})
		sink.Deps = append(sink.Deps, serve.DepRequest{Key: b, Mode: "in"})
	}
	diamond.Tasks = append(diamond.Tasks, sink)
	for i := 0; i < 10; i++ {
		ids := []string{c.MustSubmit(t, diamond), c.MustSubmit(t, diamond)}
		for _, id := range ids {
			if st, err := c.Await(id, 15*time.Second); err != nil || st.State != "done" {
				t.Fatalf("job %s: %+v %v, want done", id, st, err)
			}
		}
	}
	h.Close()
	st := online.Stop()
	if st.Gaps != 0 || st.Resets != 0 {
		t.Logf("note: checker went lax (%d gaps, %d resets over %d events)", st.Gaps, st.Resets, st.Events)
	}
	if st.Total != 0 || st.Events == 0 {
		t.Fatalf("verifier over %d events: %+v", st.Events, st)
	}
	external, marks := 0, map[uint64][4]int64{} // job → Time by Marker* phase
	for _, e := range rec.Snapshot() {
		if e.Kind == flightrec.KindComplete && e.Worker == flightrec.ExternalWorker {
			external++
		}
		if e.Kind == flightrec.KindMarker {
			m := marks[e.Task]
			m[e.Arg] = e.Time
			marks[e.Task] = m
		}
	}
	if external == 0 {
		t.Fatal("no complete event on the external ring: the sleeps did not complete off the workers")
	}
	if len(marks) != 20 {
		t.Fatalf("markers of %d jobs, want 20", len(marks))
	}
	for num, m := range marks {
		admit, launch, done := m[flightrec.MarkerAdmit], m[flightrec.MarkerLaunch], m[flightrec.MarkerDone]
		if admit == 0 || admit > launch || launch > done || done-admit < 3*d {
			t.Errorf("job %d: admit→launch %v, launch→done %v; want ordered, ≥ %v in all",
				num, time.Duration(launch-admit), time.Duration(done-launch), time.Duration(3*d))
		}
	}
}
