package serve

import (
	"fmt"
	"net/http"
	"strings"
)

// handleMetrics is GET /metrics: a Prometheus-text (version 0.0.4)
// exposition of the runtime's StatsInto snapshot plus the serve layer's
// own admission, queue, and job gauges. Everything is rendered under one
// lock acquisition so the page is a consistent snapshot; the StatsInto
// buffer is reused across scrapes.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder
	s.mu.Lock()
	s.rt.StatsInto(&s.statsBuf)
	st := &s.statsBuf

	// Pool counters.
	counter(&b, "raa_pool_submitted_total", "Tasks submitted to the shared pool.", float64(st.Submitted))
	counter(&b, "raa_pool_executed_total", "Task bodies executed.", float64(st.Executed))
	counter(&b, "raa_pool_steals_total", "Tasks dispatched through a steal.", float64(st.Steals))
	counter(&b, "raa_pool_skipped_total", "Tasks skipped on cancelled contexts.", float64(st.Skipped))
	counter(&b, "raa_pool_panics_total", "Task-body panics recovered by workers.", float64(st.Panics))
	counter(&b, "raa_pool_retries_total", "Failed attempts re-enqueued under a retry policy.", float64(st.Retries))
	counter(&b, "raa_pool_deadline_misses_total", "Task attempts that overran their deadline.", float64(st.DeadlineMisses))
	counter(&b, "raa_pool_quarantined_total", "Tasks terminally failed by panic (or poisoned by one).", float64(st.Quarantined))
	counter(&b, "raa_pool_flight_events_total", "Flight-recorder events captured.", float64(st.FlightEvents))
	gauge(&b, "raa_pool_backlog", "Submitted tasks not yet finished.", float64(s.rt.Backlog()))
	gauge(&b, "raa_pool_parked_tasks", "Tasks whose body has returned and whose completion is waiting.", float64(st.ParkedTasks))
	gauge(&b, "raa_pool_workers", "Workers in the shared pool.", float64(s.rt.Workers()))
	head(&b, "raa_worker_executed_total", "Tasks executed, by worker.", "counter")
	for wkr, n := range st.PerWorker {
		fmt.Fprintf(&b, "raa_worker_executed_total{worker=\"%d\"} %d\n", wkr, n)
	}

	// Serve-layer admission and queue state.
	head(&b, "raa_serve_admission_total", "Admission verdicts, by outcome.", "counter")
	for v := VerdictAdmit; v <= VerdictUnavailable; v++ {
		fmt.Fprintf(&b, "raa_serve_admission_total{verdict=%q} %d\n", v.String(), s.verdicts[v])
	}
	gauge(&b, "raa_serve_draining", "1 while the server drains.", b2f(s.draining))
	gauge(&b, "raa_serve_jobs_running", "Jobs launched into the pool and not yet terminal.", float64(s.runningJobs()))
	gauge(&b, "raa_serve_jobs_pending", "Admitted jobs still waiting in tenant queues.", float64(s.pendingJobs))
	head(&b, "raa_serve_lane_jobs_running", "Jobs launched into the pool and not yet terminal, by lane.", "gauge")
	for lane := Lane(0); lane < laneCount; lane++ {
		fmt.Fprintf(&b, "raa_serve_lane_jobs_running{lane=%q} %d\n", lane.String(), s.running[lane])
	}
	head(&b, "raa_serve_lane_jobs_pending", "Admitted jobs still waiting in tenant queues, by lane.", "gauge")
	for lane := Lane(0); lane < laneCount; lane++ {
		pending := 0
		for _, tn := range s.order {
			pending += len(tn.q.lanes[lane])
		}
		fmt.Fprintf(&b, "raa_serve_lane_jobs_pending{lane=%q} %d\n", lane.String(), pending)
	}

	head(&b, "raa_serve_tenant_queue_depth", "Queued jobs, by tenant.", "gauge")
	for _, tn := range s.order {
		fmt.Fprintf(&b, "raa_serve_tenant_queue_depth{tenant=%s} %d\n", label(tn.id), tn.q.depth)
	}
	head(&b, "raa_serve_tenant_backpressured", "1 while non-control submissions defer for queue depth.", "gauge")
	for _, tn := range s.order {
		fmt.Fprintf(&b, "raa_serve_tenant_backpressured{tenant=%s} %g\n", label(tn.id), b2f(inReserve(tn.q.depth, s.cfg.QueueCap)))
	}
	head(&b, "raa_serve_tenant_inflight_tokens", "Quota tokens held by admitted jobs, by tenant.", "gauge")
	for _, tn := range s.order {
		fmt.Fprintf(&b, "raa_serve_tenant_inflight_tokens{tenant=%s} %d\n", label(tn.id), tn.inFlight)
	}
	head(&b, "raa_serve_tenant_admission_total", "Admission verdicts, by tenant and outcome.", "counter")
	for _, tn := range s.order {
		for v := VerdictAdmit; v <= VerdictUnavailable; v++ {
			fmt.Fprintf(&b, "raa_serve_tenant_admission_total{tenant=%s,verdict=%q} %d\n",
				label(tn.id), v.String(), tn.verdicts[v])
		}
	}
	head(&b, "raa_serve_tenant_jobs_total", "Terminal jobs, by tenant and state.", "counter")
	for _, tn := range s.order {
		for _, sc := range [...]struct {
			state string
			n     uint64
		}{
			{"done", tn.jobsDone},
			{"failed", tn.jobsFailed},
			{"cancelled", tn.jobsCancelled},
		} {
			fmt.Fprintf(&b, "raa_serve_tenant_jobs_total{tenant=%s,state=%q} %d\n",
				label(tn.id), sc.state, sc.n)
		}
	}
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

// head writes a metric's HELP/TYPE preamble.
func head(b *strings.Builder, name, help, typ string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// counter writes a labelless counter with its preamble.
func counter(b *strings.Builder, name, help string, v float64) {
	head(b, name, help, "counter")
	fmt.Fprintf(b, "%s %g\n", name, v)
}

// gauge writes a labelless gauge with its preamble.
func gauge(b *strings.Builder, name, help string, v float64) {
	head(b, name, help, "gauge")
	fmt.Fprintf(b, "%s %g\n", name, v)
}

// b2f renders a bool as the 0/1 Prometheus convention.
func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// labelEscaper applies the exposition format's three label-value escapes
// (backslash, double quote, newline) and no others: every other byte,
// tabs and control bytes included, stands for itself.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// label renders a label value, quoted and escaped.
func label(v string) string { return `"` + labelEscaper.Replace(v) + `"` }
