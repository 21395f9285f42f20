package serve_test

import (
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/flightrec"
	"repro/internal/serve"
	"repro/internal/serve/servetest"
)

// TestFairnessGreedyCannotStarveLight: one tenant floods its queue with
// far more work than the pool can absorb while a light tenant submits a
// handful of identical jobs. Round-robin dispatch must interleave the
// light tenant's jobs near the head of the schedule — asserted two ways,
// both clock-free: by launch order, exactly, and by the light tenant's
// median completion index.
//
// The dispatch schedule is pinned by plugging both running slots with
// gate jobs while everything else is submitted, so the round-robin
// rotation — not submission-time races — decides every subsequent
// dispatch.
//
// Why launch order and a median: with two workers on two CPUs the host
// now and then deschedules a worker's thread mid-body for a scheduler tick
// (~4 ms, forty 0.1 ms bodies), and the other worker finishes the jobs
// behind it meanwhile. The light job on the stalled thread was launched on
// schedule and still finishes last. At dc68b6d this test bounded the
// light tenant's *last* completion index, and so failed in 5 of 200 runs.
// In every traced failure exactly one light body ran for 2.6–7.5 ms, not
// ~0.1 ms, while its launch was on schedule. GC off changed nothing, so it
// is the host, not the runtime. The mean-latency ratio it also checked
// read 0.32 at the median of 1000 runs and up to 0.83 after one such tick,
// against a bound of 0.5. The dispatcher alone records launches, so no
// descheduling reorders them, and one stalled thread moves one light
// completion, not the median.
func TestFairnessGreedyCannotStarveLight(t *testing.T) {
	const (
		greedyJobs = 32
		lightJobs  = 6
		spin       = 200_000 // per-job work: enough to keep the pool busy, ~0.1 ms
	)
	g := newGates()
	h := servetest.Start(t, serve.Config{
		Workers:        2,
		MaxRunningJobs: 2,
		TenantQuota:    greedyJobs + 4, // the flood must be admitted, not deferred
		QueueCap:       2 * greedyJobs, // …and stay below the control reserve (¾ of the cap)
		FlightRecorder: true,           // the launch markers
		Ops:            map[string]serve.Op{"gate": g.op},
	})
	greedy := h.Client("greedy")
	light := h.Client("light")

	spinGraph := serve.GraphRequest{
		Lane:  "data",
		Tasks: []serve.TaskRequest{{Op: "spin", Amount: spin}},
	}

	// Plug both running slots so the queues fill before dispatch starts.
	plug1 := greedy.MustSubmit(t, gateGraph(1, "data"))
	plug2 := greedy.MustSubmit(t, gateGraph(2, "data"))
	waitEntered(t, g, 1)
	waitEntered(t, g, 2)

	var greedyIDs, lightIDs []string
	for i := 0; i < greedyJobs; i++ {
		greedyIDs = append(greedyIDs, greedy.MustSubmit(t, spinGraph))
	}
	for i := 0; i < lightJobs; i++ {
		lightIDs = append(lightIDs, light.MustSubmit(t, spinGraph))
	}
	g.Open(1)
	g.Open(2)

	await := func(ids []string) []serve.JobStatus {
		sts := make([]serve.JobStatus, len(ids))
		for i, id := range ids {
			st, err := h.Client("").Await(id, 60*time.Second)
			if err != nil {
				t.Fatalf("await %s: %v", id, err)
			}
			if st.State != "done" {
				t.Fatalf("job %s = %q, want done", id, st.State)
			}
			sts[i] = st
		}
		return sts
	}
	lightSts := await(lightIDs)
	greedySts := await(greedyIDs)
	if _, err := h.Client("").Await(plug1, 30*time.Second); err != nil {
		t.Fatalf("plug1: %v", err)
	}
	if _, err := h.Client("").Await(plug2, 30*time.Second); err != nil {
		t.Fatalf("plug2: %v", err)
	}

	// Launch-order bound (clock-free): the two plugs, then 1:1 rotation
	// while the light tenant has work, so its last job is launch number
	// 2 + 2*lightJobs exactly. A starved tenant would launch last (40th).
	launched := launchOrder(h.Server)
	if len(launched) != greedyJobs+lightJobs+2 {
		t.Fatalf("%d launch markers, want %d", len(launched), greedyJobs+lightJobs+2)
	}
	lastLight := 0
	for n, id := range launched {
		if slices.Contains(lightIDs, id) {
			lastLight = n + 1
		}
	}
	if bound := 2 + 2*lightJobs; lastLight != bound {
		t.Errorf("light tenant's last job was launch %d, want %d (of %d): %v",
			lastLight, bound, len(launched), launched)
	}

	// Completion-order bound (clock-free): the pool finishes jobs in about
	// the order they were launched in, so the light tenant's middle job is
	// done by the time its last was launched. A starved tenant's would be
	// ~37th; one stalled thread moves one light job, not the median.
	done := make([]uint64, len(lightSts))
	for i, st := range lightSts {
		done[i] = st.DoneSeq
	}
	slices.Sort(done)
	if med := done[len(done)/2]; med > uint64(2+2*lightJobs) {
		t.Errorf("light tenant's median completion index = %d, want ≤ %d (of %d): %v",
			med, 2+2*lightJobs, len(launched), done)
	}
	t.Logf("fairness: light tenant's last launch %d/%d, completion indices %v (greedy's last %d)",
		lastLight, len(launched), done, greedySts[len(greedySts)-1].DoneSeq)
}

// launchOrder lists the jobs a FlightRecorder server launched, in launch
// order: its MarkerLaunch events, which the dispatcher alone records, one
// per launch, in a timeline ordered by sequence.
func launchOrder(s *serve.Server) []string {
	var ids []string
	for _, e := range s.Runtime().FlightRecorder().Snapshot() {
		if e.Kind == flightrec.KindMarker && e.Arg == flightrec.MarkerLaunch {
			ids = append(ids, "j-"+strconv.FormatUint(e.Task, 10))
		}
	}
	return ids
}
