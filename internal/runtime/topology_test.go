package runtime

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flightrec"
	"repro/internal/flightrec/verify"
)

// TestWithTopologyResolution pins the normalisation contract of
// WithTopology against the resolved worker count: invalid domains are
// dropped, oversubscribed counts clamp to the workers that exist, leftover
// workers are collected into an auto-named extra domain, and an absent or
// empty option falls back to the GOMAXPROCS-derived auto topology. In
// every case the resolved domains partition the pool exactly.
func TestWithTopologyResolution(t *testing.T) {
	cases := []struct {
		name    string
		workers int
		domains []Domain
		want    []int // resolved per-domain worker counts, in order
	}{
		{"exact partition", 4, []Domain{{Name: "a", Count: 2}, {Name: "b", Count: 2}}, []int{2, 2}},
		{"leftovers form an extra domain", 6, []Domain{{Count: 2}, {Count: 2}}, []int{2, 2, 2}},
		{"oversubscribed count clamps", 4, []Domain{{Count: 99}}, []int{4}},
		{"domains beyond the pool drop", 4, []Domain{{Count: 3}, {Count: 3}, {Count: 3}}, []int{3, 1}},
		{"invalid counts drop", 4, []Domain{{Count: 0}, {Count: -2}, {Count: 4}}, []int{4}},
		{"ragged split keeps order", 5, []Domain{{Count: 1}, {Count: 3}}, []int{1, 3, 1}},
		{"single worker", 1, []Domain{{Count: 1}, {Count: 1}}, []int{1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := New(append([]Option{WithWorkers(tc.workers)}, WithTopology(tc.domains...))...)
			defer rt.Shutdown()
			top := rt.Topology()
			if len(top) != len(tc.want) {
				t.Fatalf("resolved %d domains %v, want counts %v", len(top), top, tc.want)
			}
			sum := 0
			for i, d := range top {
				if d.Count != tc.want[i] {
					t.Errorf("domain %d = %v, want count %d", i, d, tc.want[i])
				}
				if d.Name == "" {
					t.Errorf("domain %d has no name after resolution: %v", i, top)
				}
				sum += d.Count
			}
			if sum != tc.workers {
				t.Fatalf("domains %v cover %d of %d workers", top, sum, tc.workers)
			}
			// The pool must still run work under the resolved topology.
			done := uint64(0)
			for i := 0; i < 32; i++ {
				if _, err := rt.Submit("t", 1, func() { atomic.AddUint64(&done, 1) }, InOut(i%4)); err != nil {
					t.Fatal(err)
				}
			}
			rt.Wait()
			if done != 32 {
				t.Fatalf("executed %d of 32 tasks", done)
			}
		})
	}
}

// TestWithTopologyAutoAndComposition: with no explicit domains the runtime
// adopts the GOMAXPROCS-derived auto topology, and an explicit topology
// composes with WithWorkerClasses — the class option fixes the worker
// count, the topology partitions the same IDs.
func TestWithTopologyAutoAndComposition(t *testing.T) {
	rt := New(WithWorkers(6))
	auto := autoDomains(6)
	got := rt.Topology()
	rt.Shutdown()
	if len(got) != len(auto) {
		t.Fatalf("auto topology %v, want shape of %v", got, auto)
	}
	for i := range got {
		if got[i].Count != auto[i].Count {
			t.Fatalf("auto topology %v, want counts of %v", got, auto)
		}
	}

	rt = New(
		WithWorkerClasses(
			WorkerClass{Name: "big", Count: 2, Speed: 2},
			WorkerClass{Name: "little", Count: 2, Speed: 1},
		),
		WithTopology(Domain{Name: "sock0", Count: 2}, Domain{Name: "sock1", Count: 2}),
	)
	defer rt.Shutdown()
	top := rt.Topology()
	if len(top) != 2 || top[0].Count != 2 || top[1].Count != 2 {
		t.Fatalf("topology did not compose with worker classes: %v", top)
	}
	var done uint64
	for i := 0; i < 64; i++ {
		if _, err := rt.Submit("t", 1, func() { atomic.AddUint64(&done, 1) }, InOut(i%3)); err != nil {
			t.Fatal(err)
		}
	}
	rt.Wait()
	var st Stats
	rt.StatsInto(&st)
	if done != 64 || st.Executed != 64 {
		t.Fatalf("executed %d (stats %d) of 64 tasks", done, st.Executed)
	}
	if len(st.PerDomain) != 2 {
		t.Fatalf("PerDomain has %d entries, want 2: %+v", len(st.PerDomain), st.PerDomain)
	}
	var dispatched uint64
	for i, d := range st.PerDomain {
		if d.Workers != 2 {
			t.Errorf("domain %d reports %d workers, want 2", i, d.Workers)
		}
		dispatched += d.Dispatched
	}
	if dispatched != st.Executed {
		t.Fatalf("per-domain dispatches %d != executed %d", dispatched, st.Executed)
	}
}

// TestVictimSweepDomainFirstProperty is the randomized property test for
// the tiered steal sweep: across random topologies (1–8 domains, ragged
// sizes, with and without a fast worker class) every worker's full sweep
// visits each same-domain victim before any cross-domain victim, never
// visits itself, and covers every other deque exactly once. The per-tier
// random rotation only reorders victims within a tier, so the property
// must hold for every worker on every trial.
func TestVictimSweepDomainFirstProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0xA17))
	for trial := 0; trial < 300; trial++ {
		workers := 1 + rng.Intn(12)
		var doms []Domain
		left := workers
		for i := 1 + rng.Intn(8); i > 0 && left > 0; i-- {
			c := 1 + rng.Intn(left)
			doms = append(doms, Domain{Count: c})
			left -= c
		}
		domains, domainOf := options{domains: doms}.resolveTopology(workers)
		fastN := workers
		if workers > 1 && rng.Intn(2) == 0 {
			fastN = 1 + rng.Intn(workers-1)
		}
		layout := classLayout{workers: workers, fastN: fastN, domains: len(domains), domainOf: domainOf}
		s := newTestSteal(layout, 0)
		desc := func() string {
			return fmt.Sprintf("trial %d: workers=%d fastN=%d domains=%v domainOf=%v",
				trial, workers, fastN, domains, domainOf)
		}
		for w := 0; w < workers; w++ {
			seen := make(map[int]bool, workers)
			crossed := false
			s.forEachVictim(w, tierSameLo, tierCrossHi, func(v int) bool {
				if v == w {
					t.Fatalf("%s: worker %d sweeps its own deque", desc(), w)
				}
				if v < 0 || v >= workers {
					t.Fatalf("%s: worker %d visits out-of-range victim %d", desc(), w, v)
				}
				if seen[v] {
					t.Fatalf("%s: worker %d visits victim %d twice", desc(), w, v)
				}
				seen[v] = true
				if domainOf == nil || domainOf[v] == domainOf[w] {
					if crossed {
						t.Fatalf("%s: worker %d visits same-domain victim %d after a cross-domain one",
							desc(), w, v)
					}
				} else {
					crossed = true
				}
				return false
			})
			if len(seen) != workers-1 {
				t.Fatalf("%s: worker %d swept %d of %d victims", desc(), w, len(seen), workers-1)
			}
		}
	}
}

// TestTopologySameDomainExecution: the e2e placement guarantee. On a 2×2
// topology, a chain-heavy graph (serialized chains, one per worker) must
// execute at least 60% of its pool-released successors inside the domain
// that released them — the same-worker and same-domain-spill tiers have to
// dominate cross-domain steals.
func TestTopologySameDomainExecution(t *testing.T) {
	rt := New(WithWorkers(4), WithTopology(Domain{Name: "a", Count: 2}, Domain{Name: "b", Count: 2}))
	defer rt.Shutdown()
	const chains, links = 4, 250
	var sink uint64
	body := func() {
		var acc uint64 = 0x9E3779B9
		for i := 0; i < 256; i++ {
			acc = acc*1664525 + 1013904223
		}
		atomic.AddUint64(&sink, acc)
	}
	for l := 0; l < links; l++ {
		for c := 0; c < chains; c++ {
			if _, err := rt.Submit("link", 1, body, InOut(c)); err != nil {
				t.Fatal(err)
			}
		}
	}
	rt.Wait()
	var st Stats
	rt.StatsInto(&st)
	if len(st.PerDomain) != 2 {
		t.Fatalf("PerDomain has %d entries, want 2: %+v", len(st.PerDomain), st.PerDomain)
	}
	var local, routed uint64
	for _, d := range st.PerDomain {
		local += d.LocalDispatched
		routed += d.LocalDispatched + d.CrossDispatched
	}
	if routed == 0 {
		t.Fatal("no pool-released dispatches were domain-accounted")
	}
	frac := float64(local) / float64(routed)
	if frac < 0.6 {
		t.Errorf("same-domain execution %.1f%% < 60%% (local %d / routed %d; stats %+v)",
			frac*100, local, routed, st.PerDomain)
	}
}

// TestFlightTopologyDomainGatingStress runs the mixed chain+fan workload
// on an 8-worker pool split across four memory domains with the flight
// recorder on and the online checker's domain-gating invariant armed
// (Options.DomainOf), and requires a spotless verdict. CI repeats this
// under the race detector at GOMAXPROCS=8 in the bench-multicore job, where
// parks, cross-domain steals, and injector refills genuinely overlap.
func TestFlightTopologyDomainGatingStress(t *testing.T) {
	r := New(
		WithWorkers(8),
		WithTopology(Domain{Count: 2}, Domain{Count: 2}, Domain{Count: 2}, Domain{Count: 2}),
		WithFlightRecorder(flightrec.Options{PerWorkerEvents: 1 << 14}),
	)
	var domainOf []int
	for d, dom := range r.Topology() {
		for i := 0; i < dom.Count; i++ {
			domainOf = append(domainOf, d)
		}
	}
	online := verify.StartOnline(r.FlightRecorder(), verify.Options{
		StarveBound: 30 * time.Second,
		DomainOf:    domainOf,
		OnViolation: func(v verify.Violation) {
			t.Errorf("invariant violation: %s task=%d worker=%d seq=%d: %s",
				v.Invariant, v.Task, v.Worker, v.Seq, v.Detail)
		},
	}, time.Millisecond)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("chain%d", g)
			for i := 0; i < 400; i++ {
				if _, err := r.SubmitPriority("c", 1, i%3, func() {}, InOut(key)); err != nil {
					t.Error(err)
					return
				}
				if i%8 == 0 {
					fan := fmt.Sprintf("fan%d-%d", g, i)
					if _, err := r.Submit("w", 1, func() {}, Out(fan)); err != nil {
						t.Error(err)
						return
					}
					for j := 0; j < 6; j++ {
						if _, err := r.Submit("r", 1, func() {}, In(fan)); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	r.Wait()
	r.Shutdown()
	st := online.Stop()
	if st.Total != 0 {
		t.Fatalf("verifier flagged a clean topology run: %+v", st)
	}
	if st.Events == 0 {
		t.Fatal("verifier consumed no events")
	}
}

// mixedChainFan drives serialized chains with periodic fans through r and
// waits for the pool to go quiet, so every counter read afterwards is
// stable.
func mixedChainFan(t *testing.T, r *Runtime) {
	t.Helper()
	for i := 0; i < 300; i++ {
		for c := 0; c < 4; c++ {
			if _, err := r.Submit("link", 1, func() {}, InOut(c)); err != nil {
				t.Fatal(err)
			}
		}
		if i%10 == 0 {
			fan := fmt.Sprintf("fan%d", i)
			if _, err := r.Submit("root", 1, func() {}, Out(fan)); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 12; j++ {
				if _, err := r.Submit("leaf", 1, func() {}, In(fan)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	r.Wait()
}

// Stats, Stats.PerDomain and the controller's sample are all read-time
// groupings of the one per-worker counter block (plus the scheduler's
// injector traffic), so they must agree with it and with each other
// exactly — there is no second counter that could drift.
func TestTopologyDerivedCountersAgree(t *testing.T) {
	r := New(WithWorkers(4), WithTopology(Domain{Count: 2}, Domain{Count: 2}))
	defer r.Shutdown()
	mixedChainFan(t, r)
	st := r.Stats()
	var smp signalSample
	r.sampleSignals(&smp)

	// The expected per-domain figures, grouped by hand from the blocks.
	want := make([]DomainStats, 2)
	var homed uint64
	for w := range r.sig.workers {
		b, d := &r.sig.workers[w], &want[r.domainOf[w]]
		d.Steals += b.steals
		d.LocalDispatched += b.homeHit + b.homeNear
		d.CrossDispatched += b.homeFar
		homed += b.homeHit + b.homeNear + b.homeFar
	}
	var steals, routed, inj uint64
	for i, d := range st.PerDomain {
		if d.Steals != want[i].Steals || d.LocalDispatched != want[i].LocalDispatched || d.CrossDispatched != want[i].CrossDispatched {
			t.Errorf("domain %d = %+v, want steals/local/cross %d/%d/%d from the worker blocks",
				i, d, want[i].Steals, want[i].LocalDispatched, want[i].CrossDispatched)
		}
		steals += d.Steals
		routed += d.LocalDispatched + d.CrossDispatched
		inj += d.InjectorPushes
	}
	if steals != st.Steals {
		t.Errorf("Σ PerDomain.Steals = %d, Stats.Steals = %d", steals, st.Steals)
	}
	if routed != homed {
		t.Errorf("Σ PerDomain local+cross = %d, worker blocks' home hit+near+far = %d", routed, homed)
	}
	if routed == 0 || inj == 0 {
		t.Errorf("workload exercised nothing: routed %d, injector pushes %d", routed, inj)
	}
	if smp.Executed != st.Executed || smp.Pending != 0 {
		t.Errorf("controller's sample of the drained pool: executed %d (Stats %d), pending %d (want 0)",
			smp.Executed, st.Executed, smp.Pending)
	}

	// A single-domain pool reports every dispatch local — externally
	// submitted tasks included — and the pool's steals as the domain's.
	flat := New(WithWorkers(4), WithTopology(Domain{Count: 4}))
	defer flat.Shutdown()
	mixedChainFan(t, flat)
	fs := flat.Stats()
	if len(fs.PerDomain) != 1 {
		t.Fatalf("flat pool has %d domains, want 1", len(fs.PerDomain))
	}
	d := fs.PerDomain[0]
	if d.Dispatched != fs.Executed || d.LocalDispatched != d.Dispatched || d.CrossDispatched != 0 || d.Steals != fs.Steals {
		t.Errorf("flat PerDomain[0] = %+v, want dispatched = local = %d, cross 0, steals %d", d, fs.Executed, fs.Steals)
	}
}
