package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestInvalidGraphsStill400AndBurnNothing: validation moved out of the
// lowering step, and must still refuse exactly what it refused — same
// status, same message, checked in the same order — before admission sees
// the request: no token held, no verdict counted.
func TestInvalidGraphsStill400AndBurnNothing(t *testing.T) {
	s, err := New(Config{Workers: 1, MaxGraphTasks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// One good job first, so the tenant session and its counters exist.
	runAdmittedJob(t, s, `{"tasks":[{"op":"noop"}]}`)
	s.mu.Lock()
	tn := s.tenants["t0"]
	before, tenantBefore := s.verdicts, tn.verdicts
	s.mu.Unlock()

	for _, tc := range []struct{ body, want string }{
		{`{"tasks":[]}`, "graph has no tasks"},
		{`{}`, "graph has no tasks"},
		{`{"tasks":[{"op":"noop"},{"op":"noop"},{"op":"noop"},{"op":"noop"},{"op":"noop"}]}`, "graph has 5 tasks, limit is 4"},
		{`{"tasks":[{"op":"noop"},{"op":"warp"}]}`, `task 1: unknown op "warp"`},
		{`{"tasks":[{"op":"spin","amount":-1}]}`, "task 0: negative amount"},
		{`{"tasks":[{"op":"noop"},{"op":"noop","deps":[{"mode":"in"}]}]}`, "task 1: dep 0 has empty key"},
		{`{"tasks":[{"op":"noop","deps":[{"key":"k","mode":"in"},{"key":"k","mode":"rw"}]}]}`,
			`task 0: dep 1 has unknown mode "rw" (want in, out, or inout)`},
		{`{"tasks":[{"op":"noop","retry":{"max":17}}]}`, "task 0: retry max 17 out of range [0, 16]"},
		{`{"tasks":[{"op":"noop","retry":{"max":-1}}]}`, "task 0: retry max -1 out of range [0, 16]"},
		{`{"tasks":[{"op":"noop","retry":{"max":1,"backoff_ms":-5}}]}`, "task 0: negative retry backoff"},
		{`{"tasks":[{"op":"noop","retry":{"max":1,"max_backoff_ms":-5}}]}`, "task 0: negative retry backoff"},
		{`{"tasks":[{"op":"noop","deadline_ms":-1}]}`, "task 0: negative deadline"},
		// The order of the checks: per task op, amount, deps, retry,
		// deadline; an earlier task's last check before a later task's first.
		{`{"tasks":[{"op":"warp","amount":-1,"deps":[{"mode":"rw"}],"deadline_ms":-1}]}`, `task 0: unknown op "warp"`},
		{`{"tasks":[{"op":"noop","amount":-1,"deps":[{"mode":"rw"}]}]}`, "task 0: negative amount"},
		{`{"tasks":[{"op":"noop","deps":[{"mode":"rw"}],"retry":{"max":99}}]}`, "task 0: dep 0 has empty key"},
		{`{"tasks":[{"op":"noop","retry":{"max":99},"deadline_ms":-1}]}`, "task 0: retry max 99 out of range [0, 16]"},
		{`{"tasks":[{"op":"noop","deadline_ms":-1},{"op":"warp"}]}`, "task 0: negative deadline"},
		// The handler's own checks come before the graph's.
		{`{"lane":"bulk","tasks":[{"op":"warp"}]}`, `unknown lane "bulk" (want control, data, or telemetry)`},
		{`{"on_failure":"explode","tasks":[{"op":"warp"}]}`, `unknown on_failure "explode" (want continue or fail_fast)`},
	} {
		w := post(s, "t0", tc.body)
		var reply ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil {
			t.Errorf("%s: reply %q: %v", tc.body, w.Body, err)
		}
		if w.Code != http.StatusBadRequest || reply.Error != tc.want {
			t.Errorf("%s:\n got %d %q\nwant 400 %q", tc.body, w.Code, reply.Error, tc.want)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if tn.inFlight != 0 {
		t.Errorf("refused graphs hold %d tokens", tn.inFlight)
	}
	if s.verdicts != before || tn.verdicts != tenantBefore {
		t.Errorf("refused graphs moved the verdict counters: server %v→%v, tenant %v→%v",
			before, s.verdicts, tenantBefore, tn.verdicts)
	}
}

// TestCancelledWhileQueuedIsNeverLowered: a job cancelled in its tenant
// queue is reaped by the dispatcher without being launched — its graph is
// never lowered, nothing of it reaches the pool — and its pooled request
// goes back rather than staying pinned by the job record in history.
func TestCancelledWhileQueuedIsNeverLowered(t *testing.T) {
	gate := make(chan struct{})
	s, err := New(Config{Workers: 1, MaxRunningJobs: 1, Ops: map[string]Op{"gate": gateOp(gate)}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	three := `{"tasks":[{"op":"noop","deps":[{"key":"k","mode":"out"}]},{"op":"noop","deps":[{"key":"k","mode":"in"}]},{"op":"noop"}]}`
	if w := post(s, "t0", `{"tasks":[{"op":"gate"}]}`); w.Code != http.StatusAccepted {
		t.Fatalf("plug = %d %s", w.Code, w.Body)
	}
	if w := post(s, "t0", three); w.Code != http.StatusAccepted {
		t.Fatalf("queued = %d %s", w.Code, w.Body)
	}
	queued := jobRecord(s, 2)
	s.mu.Lock()
	held := queued.sub
	s.mu.Unlock()
	if held == nil || len(held.g.Tasks) != 3 {
		t.Fatalf("a queued job holds request %+v, want its three tasks", held)
	}

	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs/j-2/cancel", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("cancel = %d %s", w.Code, w.Body)
	}
	<-queued.done

	// Let the plug go and run one more job behind the cancelled one: the
	// lane is FIFO, so once it is done the dispatcher has been past job 2.
	close(gate)
	if w := post(s, "t0", three); w.Code != http.StatusAccepted {
		t.Fatalf("follower = %d %s", w.Code, w.Body)
	}
	<-jobRecord(s, 3).done
	s.rt.Wait()

	s.mu.Lock()
	state, req := queued.state, queued.sub
	s.mu.Unlock()
	if state != jobCancelled {
		t.Errorf("cancelled-while-queued job ended %v", state)
	}
	if req != nil {
		t.Errorf("the reaped job still holds its request")
	}
	if got := s.rt.Stats().Submitted; got != 1+3 {
		t.Errorf("pool saw %d tasks, want 4: the plug's one and the follower's three, none of the cancelled job's", got)
	}
	if n := queued.attempts.Load(); n != 0 {
		t.Errorf("cancelled job ran %d bodies", n)
	}
}
