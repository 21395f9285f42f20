package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fuzzServer is FuzzSubmit's server, small enough that every verdict is one
// POST away: one worker, one running job, four queued jobs and eight tokens
// a tenant. Tenant "p" holds the running cap with a control-lane gate job,
// "q" has filled its queue (three data jobs and a control job in the
// reserve) and "d" holds seven of its eight tokens, all with gate jobs that
// wait for the returned channel to close; any other tenant starts empty.
// The POST is under test, not the ops: spin does nothing and sleep waits
// at most a millisecond, so no amount keeps a job past the drain.
func fuzzServer(tb testing.TB) (*Server, chan struct{}) {
	gate := make(chan struct{})
	sleep := builtinOps()["sleep"]
	s, err := New(Config{Workers: 1, MaxRunningJobs: 1, QueueCap: 4, TenantQuota: 8, Ops: map[string]Op{
		"gate":  gateOp(gate),
		"spin":  func(context.Context, int64) error { return nil },
		"sleep": func(ctx context.Context, n int64) error { return sleep(ctx, min(n, int64(time.Millisecond))) },
	}})
	if err != nil {
		tb.Fatal(err)
	}
	data, control := `{"tasks":[{"op":"gate"}]}`, `{"lane":"control","tasks":[{"op":"gate"}]}`
	seven := `{"tasks":[` + strings.Repeat(`{"op":"gate"},`, 6) + `{"op":"gate"}]}`
	for _, p := range [][2]string{{"p", control}, {"q", data}, {"q", data}, {"q", data}, {"q", control}, {"d", seven}} {
		if w := post(s, p[0], p[1]); w.Code != http.StatusAccepted {
			tb.Fatalf("setup POST for %q = %d %s", p[0], w.Code, w.Body)
		}
	}
	return s, gate
}

// verdictStatus is the status each verdict replies with.
var verdictStatus = [...]int{
	VerdictAdmit:       http.StatusAccepted,
	VerdictDefer:       http.StatusServiceUnavailable,
	VerdictReject:      http.StatusTooManyRequests,
	VerdictUnavailable: http.StatusServiceUnavailable,
}

// verdictWord is each verdict's SubmitResponse status.
var verdictWord = [...]string{
	VerdictAdmit:       "queued",
	VerdictDefer:       "deferred",
	VerdictReject:      "rejected",
	VerdictUnavailable: "rejected",
}

// decodeStrict decodes a reply body into v: one JSON value, no member v
// does not have, nothing after it.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return err
	}
	return nil
}

// FuzzSubmit sends an arbitrary body under an arbitrary tenant header
// through Handler().ServeHTTP, on a server drained first or not. Whatever
// the POST, its status is 202, 400, 429 or 503; a 400 counts no verdict and
// anything else exactly the one its status says; the reply decodes as an
// ErrorResponse (400) or a SubmitResponse that agrees with its status; and
// Retry-After is set exactly on a deferred 503. Then the gate opens and the
// server drains: every admitted job ends terminal, and every tenant holds
// no token and no queued job.
func FuzzSubmit(f *testing.F) {
	tenants := []string{"", "n", "p", "q", "d"}
	for i, pair := range hygieneSeeds {
		for k, body := range pair {
			f.Add([]byte(body), tenants[(2*i+k)%len(tenants)], (2*i+k)%7 == 6)
		}
	}
	two, nine := `{"tasks":[{"op":"noop"},{"op":"noop"}]}`, `{"tasks":[`+strings.Repeat(`{"op":"noop"},`, 8)+`{"op":"noop"}]}`
	f.Add([]byte(two), "n", false)                                     // 202
	f.Add([]byte(`{"tenant":"d","tasks":[{"op":"noop"}]}`), "", false) // 202, the last token
	f.Add([]byte(two), "d", false)                                     // 503 quota
	f.Add([]byte(two), "q", false)                                     // 429 queue-full
	f.Add([]byte(nine), "n", false)                                    // 429 graph-exceeds-quota
	f.Add([]byte(two), "n", true)                                      // 503 draining
	f.Add([]byte(`{"tasks":[{"op":"fail","retry":{"max":16,"backoff_ms":60000}}]}`), "n", false)
	f.Fuzz(func(t *testing.T, body []byte, tenant string, drain bool) {
		s, gate := fuzzServer(t)
		defer s.Close()
		if drain {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_ = s.Drain(ctx) // admission closes; the gate jobs keep the drain from ending
		}
		s.mu.Lock()
		before := s.verdicts
		s.mu.Unlock()
		r := httptest.NewRequest(http.MethodPost, "/v1/graphs", bytes.NewReader(body))
		r.Header["X-Raa-Tenant"] = []string{tenant}
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)

		s.mu.Lock()
		counted, verdict := 0, Verdict(0)
		for v := range s.verdicts {
			if n := s.verdicts[v] - before[v]; n > 0 {
				counted += int(n)
				verdict = Verdict(v)
			}
		}
		s.mu.Unlock()
		_, retryAfter := w.Header()["Retry-After"]
		switch {
		case w.Code == http.StatusBadRequest:
			var er ErrorResponse
			if err := decodeStrict(w.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Fatalf("400 reply %q: %v", w.Body, err)
			}
			if counted != 0 || retryAfter {
				t.Fatalf("a 400 counted %d verdicts, Retry-After %v", counted, retryAfter)
			}
		case counted != 1 || verdictStatus[verdict] != w.Code:
			t.Fatalf("status %d counted %d verdicts (last %v)\nbody: %q", w.Code, counted, verdict, body)
		default:
			var sr SubmitResponse
			if err := decodeStrict(w.Body.Bytes(), &sr); err != nil {
				t.Fatalf("%d reply %q: %v", w.Code, w.Body, err)
			}
			if sr.Status != verdictWord[verdict] || (sr.Job != "") != (verdict == VerdictAdmit) || sr.Reason == "" && verdict != VerdictAdmit {
				t.Fatalf("%v reply %+v", verdict, sr)
			}
			if deferred := verdict == VerdictDefer; retryAfter != deferred || deferred && sr.RetryAfterMS != s.cfg.RetryAfter.Milliseconds() {
				t.Fatalf("%v reply: Retry-After set %v, retry_after_ms %d", verdict, retryAfter, sr.RetryAfterMS)
			}
		}

		close(gate)
		if !drainOrCancel(s) {
			t.Fatalf("the server did not drain\nbody: %q", body)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		for id, j := range s.jobs {
			if !j.state.terminal() {
				t.Errorf("job %s is %v after the drain", id, j.state)
			}
		}
		for id, tn := range s.tenants {
			if tn.inFlight != 0 || tn.q.depth != 0 {
				t.Errorf("tenant %q holds %d tokens and %d queued jobs after the drain", id, tn.inFlight, tn.q.depth)
			}
		}
		if s.pendingJobs != 0 || s.runningJobs() != 0 {
			t.Errorf("%d jobs pending and %d running after the drain", s.pendingJobs, s.runningJobs())
		}
	})
}

// drainOrCancel drains s. A job whose body asked for retry backoffs longer
// than a drain should wait for is cancelled, as an operator would, and the
// drain waited for again; false if even that does not end it.
func drainOrCancel(s *Server) bool {
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if s.Drain(ctx) == nil {
		return true
	}
	s.mu.Lock()
	for _, j := range s.jobs {
		s.cancelLocked(j)
	}
	s.mu.Unlock()
	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return s.Drain(ctx) == nil
}
