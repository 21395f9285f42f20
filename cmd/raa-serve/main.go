// Command raa-serve is the runtime's network front end: a long-lived,
// multi-tenant task service (package internal/serve) over one shared
// runtime pool.
//
// Usage:
//
//	raa-serve [-addr :8080] [-workers N] [-flight] [-quota N]
//	          [-queue-cap N] [-selftest]
//
// POST /v1/graphs submits a JSON task graph (tenant in the X-RAA-Tenant
// header), GET /v1/jobs/{id} reads (or long-polls, ?wait=1s) its state,
// POST /v1/jobs/{id}/cancel cancels it, GET /healthz and GET /metrics
// serve probes and Prometheus text. On SIGTERM or SIGINT the server
// drains gracefully: admission flips to 503, admitted jobs finish, then
// the listener and the pool shut down.
//
// -selftest boots the server on a loopback port and drives one
// end-to-end pass through the servetest client — submit, await, verify
// metrics, drain — exiting non-zero on any failure; CI uses it as the
// serve smoke test.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/servetest"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "pool workers (0 = GOMAXPROCS)")
		flight    = flag.Bool("flight", false, "enable the flight recorder + request markers")
		quota     = flag.Int64("quota", 0, "per-tenant token quota (0 = default)")
		queueCap  = flag.Int("queue-cap", 0, "per-tenant queue capacity (0 = default)")
		drainWait = flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on SIGTERM")
		selftest  = flag.Bool("selftest", false, "boot on loopback, run an e2e submit/await/drain pass, exit")
	)
	flag.Parse()

	cfg := serve.Config{
		Workers:        *workers,
		FlightRecorder: *flight,
		TenantQuota:    *quota,
		QueueCap:       *queueCap,
	}

	if *selftest {
		if err := runSelftest(cfg); err != nil {
			log.Fatalf("raa-serve selftest: %v", err)
		}
		fmt.Println("raa-serve selftest: ok")
		return
	}

	s, err := serve.New(cfg)
	if err != nil {
		log.Fatalf("raa-serve: %v", err)
	}
	hs := &http.Server{Addr: *addr, Handler: s.Handler()}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := <-sigs
		log.Printf("raa-serve: %v — draining (budget %v)", sig, *drainWait)
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			log.Printf("raa-serve: drain incomplete: %v", err)
		}
		shutdownCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel2()
		_ = hs.Shutdown(shutdownCtx)
		s.Close()
	}()

	log.Printf("raa-serve: listening on %s (workers=%d)", *addr, s.Runtime().Workers())
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatalf("raa-serve: %v", err)
	}
	<-done
}

// runSelftest is the CI smoke: one end-to-end pass against a loopback
// server through the same client the test battery uses.
func runSelftest(cfg serve.Config) error {
	h, err := servetest.New(cfg)
	if err != nil {
		return err
	}
	defer h.Close()
	c := h.Client("selftest")

	// A small diamond: two parallel spins feeding a join.
	graph := serve.GraphRequest{
		Lane: "data",
		Tasks: []serve.TaskRequest{
			{Name: "left", Op: "spin", Amount: 50000, Deps: []serve.DepRequest{{Key: "l", Mode: "out"}}},
			{Name: "right", Op: "spin", Amount: 50000, Deps: []serve.DepRequest{{Key: "r", Mode: "out"}}},
			{Name: "join", Op: "noop", Deps: []serve.DepRequest{{Key: "l", Mode: "in"}, {Key: "r", Mode: "in"}}},
		},
	}
	sub, err := c.Submit(graph)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	if !sub.Admitted() {
		return fmt.Errorf("submit not admitted: %d %s/%s", sub.Code, sub.Response.Status, sub.Response.Reason)
	}
	st, err := c.Await(sub.Response.Job, 10*time.Second)
	if err != nil {
		return fmt.Errorf("await: %w", err)
	}
	if st.State != "done" {
		return fmt.Errorf("job finished %q, want done (err %q)", st.State, st.Error)
	}
	if code, err := c.Healthz(); err != nil || code != http.StatusOK {
		return fmt.Errorf("healthz: code %d err %v", code, err)
	}
	metrics, err := c.Metrics()
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	for _, want := range []string{
		"raa_pool_executed_total",
		`raa_serve_admission_total{verdict="admit"} 1`,
		`raa_serve_tenant_jobs_total{tenant="selftest",state="done"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			return fmt.Errorf("metrics page missing %q", want)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := h.DrainAndClose(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return nil
}
