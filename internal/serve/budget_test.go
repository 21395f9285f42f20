package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
)

// What one job may allocate from POST /v1/graphs to its terminal state,
// driven through the handler with no socket: the measured count plus 8
// objects admitted, 7 refused, the harness's own request and recorder
// (about 17 objects) included.
// Before graphs were lowered into slabs at launch the same harness read
// 225 for the admitted job and 139 for the refused one, which used to
// lower its graph too and now pays for its decode and its reply only;
// before the tracker recycled reader lists and the handler read the body
// into a pooled buffer, 112 and 81; before the graph was decoded into
// reused buffers and replies encoded into a pooled one, 97 and 75; before
// a task carried its argument (one slab a job, not a closure a task) and
// a small graph's key cells moved into the job record, 42 and 23.
// DESIGN.md § Service has the stage-by-stage table; CI's -benchmem
// step holds BenchmarkServeJobDiamond8 to the same two numbers. Counted
// with go1.24: most of what is left is the harness's and net/http's, which
// may move a few objects on another release.
const (
	admittedJobAllocBudget = 41 // measured 33
	refusedJobAllocBudget  = 30 // measured 23
)

// diamond8Body is the benchmark's diamond-8 on the wire: a source, six
// middles reading it, a sink joining the six.
func diamond8Body(op string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, `{"tasks":[{"op":%q,"deps":[{"key":"a","mode":"out"}]}`, op)
	for m := 1; m <= 6; m++ {
		fmt.Fprintf(&sb, `,{"op":%q,"deps":[{"key":"a","mode":"in"},{"key":"b%d","mode":"out"}]}`, op, m)
	}
	fmt.Fprintf(&sb, `,{"op":%q,"deps":[`, op)
	for m := 1; m <= 6; m++ {
		if m > 1 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"key":"b%d","mode":"in"}`, m)
	}
	sb.WriteString(`]}]}`)
	return sb.String()
}

// post drives one POST /v1/graphs through the handler, without a socket.
func post(s *Server, tenant, body string) *httptest.ResponseRecorder {
	r := httptest.NewRequest(http.MethodPost, "/v1/graphs", strings.NewReader(body))
	r.Header.Set("X-RAA-Tenant", tenant)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	return w
}

// jobRecord returns the record of the n-th job the server admitted.
func jobRecord(s *Server, n uint64) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs["j-"+strconv.FormatUint(n, 10)]
}

// trackerWarmJobs is how many diamond-8s (seven fresh keys each) take
// every shard of the pool's dependence tracker — one per P, rounded up to a
// power of two, sweeping at 512 keys — through its first three sweeps. From
// then on a job's keys read into the lists finished jobs left behind, which
// is the steady state the budget is about.
func trackerWarmJobs() int {
	shards := 1
	for shards < runtime.GOMAXPROCS(0) {
		shards <<= 1
	}
	return 3 * shards * 512 / 7
}

// runAdmittedJob posts one graph (a diamond-8 of noops, for the budget) and
// follows it to its terminal state (and the pool to idle, so the next run
// finds every task record back in the freelist).
func runAdmittedJob(tb testing.TB, s *Server, body string) *job {
	if w := post(s, "t0", body); w.Code != http.StatusAccepted {
		tb.Fatalf("POST = %d %s, want 202", w.Code, w.Body)
	}
	s.mu.Lock()
	n := s.jobSeq
	s.mu.Unlock()
	j := jobRecord(s, n)
	<-j.done
	s.rt.Wait()
	if j.state != jobDone {
		tb.Fatalf("job ended %v, want done", j.state)
	}
	return j
}

// gateOp is an op that holds its task until gate closes (or the job is
// cancelled).
func gateOp(gate <-chan struct{}) Op {
	return func(ctx context.Context, _ int64) error {
		select {
		case <-gate:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// quotaPlugged returns a server whose tenant "t0" has its whole quota held
// by one gated diamond-8, so that the next one is deferred (503, quota),
// and the function that lets the plug go.
func quotaPlugged(tb testing.TB) (*Server, func()) {
	gate := make(chan struct{})
	s, err := New(Config{Workers: 2, TenantQuota: 8, Ops: map[string]Op{"gate": gateOp(gate)}})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	if w := post(s, "t0", diamond8Body("gate")); w.Code != http.StatusAccepted {
		tb.Fatalf("plug POST = %d %s, want 202", w.Code, w.Body)
	}
	return s, func() { close(gate) }
}

// runRefusedJob posts one diamond-8 that the quota defers.
func runRefusedJob(tb testing.TB, s *Server, body string) {
	if w := post(s, "t0", body); w.Code != http.StatusServiceUnavailable {
		tb.Fatalf("POST = %d %s, want 503", w.Code, w.Body)
	}
}

// TestServeJobAllocBudget pins what a job costs in objects, admitted and
// refused. It is the standing check that the service path stays on the
// diet the in-process path is on: per job, not per task or per dependence.
func TestServeJobAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector (sync.Pool drops items)")
	}
	// A collection mid-run empties the pools; keep it out of the count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	body := diamond8Body("noop")

	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < trackerWarmJobs(); i++ {
		runAdmittedJob(t, s, body) // warm the pools, the freelist, the tracker
	}
	// The same diamond of 100 µs sleeps, each task parked off its worker
	// and completed by a waiter, is held to the same budget: the waiters
	// are pooled, so the waits allocate nothing of their own.
	sleeps := strings.ReplaceAll(diamond8Body("sleep"), `"op":"sleep"`, `"op":"sleep","amount":100000`)
	for _, c := range []struct{ name, body string }{{"noops", body}, {"100 µs sleeps", sleeps}} {
		for i := 0; i < 64; i++ {
			runAdmittedJob(t, s, c.body)
		}
		if got := testing.AllocsPerRun(200, func() { runAdmittedJob(t, s, c.body) }); got > admittedJobAllocBudget {
			t.Errorf("an admitted diamond-8 of %s allocates %.1f objects POST→terminal, budget %d", c.name, got, admittedJobAllocBudget)
		} else {
			t.Logf("admitted diamond-8 of %s: %.1f objects (budget %d)", c.name, got, admittedJobAllocBudget)
		}
	}

	plugged, unplug := quotaPlugged(t)
	defer unplug()
	for i := 0; i < 64; i++ {
		runRefusedJob(t, plugged, body)
	}
	if got := testing.AllocsPerRun(200, func() { runRefusedJob(t, plugged, body) }); got > refusedJobAllocBudget {
		t.Errorf("a refused diamond-8 allocates %.1f objects, budget %d", got, refusedJobAllocBudget)
	} else {
		t.Logf("refused diamond-8: %.1f objects (budget %d)", got, refusedJobAllocBudget)
	}
}

// BenchmarkServeJobDiamond8 is one diamond-8 of noop tasks from
// Handler().ServeHTTP to its terminal state — no socket, no long-poll —
// and its refused twin, the 503 path. allocs/op is the gated number (CI
// compares it to the budgets above); ns/op is mostly the harness waiting
// for the pool.
func BenchmarkServeJobDiamond8(b *testing.B) {
	body := diamond8Body("noop")
	b.Run("admitted", func(b *testing.B) {
		s, err := New(Config{Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		for i := 0; i < trackerWarmJobs(); i++ {
			runAdmittedJob(b, s, body)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runAdmittedJob(b, s, body)
		}
	})
	b.Run("refused", func(b *testing.B) {
		s, unplug := quotaPlugged(b)
		defer unplug()
		for i := 0; i < 64; i++ {
			runRefusedJob(b, s, body)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runRefusedJob(b, s, body)
		}
	})
}
