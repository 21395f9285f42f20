package serve_test

import (
	"context"
	"net/http"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/servetest"
)

// TestAdmissionRungsReachableAtDefaults decides whether every rung of the
// admission ladder can fire on a server nobody tuned: Config{Workers: 1}
// and nothing else set (the gate op is test plumbing, not sizing), so the
// defaults are quota 256 tokens, queue 64 with the control reserve from
// depth 48, at most 4 running jobs, and pool-backlog bounds of 64
// (telemetry) and 256 (data) tasks. Each rung gets one
// scripted tenant mix of all-gate graphs — nothing completes, so every
// count is exact — and the probes assert the HTTP code and reason. The job
// sizes are the largest that reach the rung: one task more and an earlier
// rung (quota) answers instead, which is why the 8-task diamonds of the
// benchmark's serve-overload workload only ever see "quota".
func TestAdmissionRungsReachableAtDefaults(t *testing.T) {
	// load is a standing burst: jobs all-gate graphs of tasks tasks each,
	// all of which must be admitted. settle, when non-zero, is the pool
	// backlog to wait for afterwards (every launched task outstanding).
	type load struct {
		tenant, lane string
		jobs, tasks  int
		settle       int64
	}
	type probe struct {
		tenant, lane string
		tasks        int
		code         int
		reason       string
	}
	const (
		deferred = http.StatusServiceUnavailable
		rejected = http.StatusTooManyRequests
		admitted = http.StatusAccepted
	)
	rungs := []struct {
		name   string
		drain  bool
		loads  []load
		probes []probe
	}{
		{name: "draining", drain: true,
			probes: []probe{{"t", "control", 1, deferred, "draining"}}},
		{name: "graph-exceeds-quota",
			probes: []probe{{"t", "data", 257, rejected, "graph-exceeds-quota"}, {"t", "data", 256, admitted, ""}}},
		// 4 running + 64 queued jobs of 3 tasks hold 204 of 256 tokens.
		// Control-lane traffic is what fills the reserve from depth 48.
		{name: "queue-full",
			loads:  []load{{"t", "control", 4, 3, 12}, {"t", "control", 64, 3, 0}},
			probes: []probe{{"t", "control", 3, rejected, "queue-full"}, {"t", "data", 3, rejected, "queue-full"}}},
		// A full running cap of 64-task jobs is data's backlog bound
		// exactly. Tested before quota, so it shields even a tenant with
		// nothing in flight; control rides through.
		{name: "overload-hard",
			loads: []load{{"h0", "data", 1, 64, 0}, {"h1", "data", 1, 64, 0}, {"h2", "data", 1, 64, 0}, {"h3", "data", 1, 64, 256}},
			probes: []probe{{"x", "telemetry", 1, deferred, "overload"}, {"x", "data", 1, deferred, "overload"},
				{"x", "control", 1, admitted, ""}}},
		// serve-overload's shape: 32 eight-task jobs are the whole quota,
		// with 28 queued — 20 short of the reserve.
		{name: "quota",
			loads:  []load{{"t", "data", 32, 8, 0}},
			probes: []probe{{"t", "data", 8, deferred, "quota"}, {"t", "control", 1, deferred, "quota"}, {"u", "data", 8, admitted, ""}}},
		// 4 running + 48 queued jobs of 4 tasks hold 208 tokens: the
		// reserve closes with room for one more job under the quota.
		{name: "backpressure",
			loads: []load{{"t", "data", 4, 4, 16}, {"t", "data", 48, 4, 0}},
			probes: []probe{{"t", "data", 4, deferred, "backpressure"}, {"t", "telemetry", 4, deferred, "backpressure"},
				{"t", "control", 4, admitted, ""}}},
		// Four running 16-task jobs are telemetry's backlog bound exactly.
		{name: "overload-soft",
			loads:  []load{{"h0", "data", 1, 16, 0}, {"h1", "data", 1, 16, 0}, {"h2", "data", 1, 16, 0}, {"h3", "data", 1, 16, 64}},
			probes: []probe{{"x", "telemetry", 1, deferred, "overload"}, {"x", "data", 1, admitted, ""}}},
	}
	for _, rung := range rungs {
		t.Run(rung.name, func(t *testing.T) {
			g := newGates()
			h := servetest.Start(t, serve.Config{Workers: 1, Ops: map[string]serve.Op{"gate": g.op}})
			for _, l := range rung.loads {
				c := h.Client(l.tenant)
				for i := 0; i < l.jobs; i++ {
					c.MustSubmit(t, allGateGraph(l.tasks, l.lane))
				}
				deadline := time.Now().Add(20 * time.Second)
				for l.settle != 0 && h.Server.Runtime().Backlog() != l.settle {
					if time.Now().After(deadline) {
						t.Fatalf("pool backlog %d never reached %d", h.Server.Runtime().Backlog(), l.settle)
					}
					time.Sleep(time.Millisecond)
				}
			}
			if rung.drain {
				if err := h.Server.Drain(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			for _, p := range rung.probes {
				sub, err := h.Client(p.tenant).Submit(allGateGraph(p.tasks, p.lane))
				if err != nil {
					t.Fatal(err)
				}
				if sub.Code != p.code || sub.Response.Reason != p.reason {
					t.Errorf("tenant %s, %d-task %s job: got %d %s/%q, want %d %q",
						p.tenant, p.tasks, p.lane, sub.Code, sub.Response.Status, sub.Response.Reason, p.code, p.reason)
				}
			}
		})
	}
}
