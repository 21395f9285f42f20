package runtime

import (
	"fmt"
	stdruntime "runtime"
)

// Domain describes one memory-hierarchy domain of the worker pool — the
// software model of a group of cores sharing a cache level or NUMA node.
// Count workers belong to the domain; Name is an optional label ("llc0",
// "numa1") surfaced by diagnostics, auto-named "dom<i>" after resolution.
// Domains partition the worker-ID space in order: with WithWorkerClasses
// in effect, worker IDs are assigned fastest class first and domains slice
// that same ordering — so a Domain whose Count equals the fast class's
// size makes the fast class one domain, mirroring big cores sharing their
// own cluster cache.
type Domain struct {
	// Name labels the domain in stats and diagnostics ("" = auto).
	Name string
	// Count is the number of workers grouped into the domain.
	Count int
}

// String renders the domain as "name×count".
func (d Domain) String() string { return fmt.Sprintf("%s×%d", d.Name, d.Count) }

// valid reports whether the domain contributes workers.
func (d Domain) valid() bool { return d.Count > 0 }

// autoDomainWidth is the modelled cores-per-domain used when WithTopology
// is not given: one domain per 4-wide cluster of GOMAXPROCS, the common
// shared-L2/LLC cluster width. A machine (or CI job) with GOMAXPROCS ≤ 4
// therefore resolves to a single domain — the degenerate topology in which
// every domain-aware path collapses to the flat PR-5 behaviour.
const autoDomainWidth = 4

// WithTopology groups the pool's workers into memory-hierarchy domains.
// The scheduler uses the grouping for hierarchy-aware placement: successor
// placement prefers same-worker, then same-domain, then anywhere; victim
// sweeps steal same-domain first; and each domain has its own injector
// with cross-domain overflow. Domains are assigned worker IDs in order
// (composing with WithWorkerClasses' fastest-first ID assignment — see
// Domain). Invalid domains (Count ≤ 0) are dropped; domains whose counts
// exceed the pool are truncated to it and workers left over after the last
// domain form an extra auto-named domain, so the resolved topology always
// partitions the pool exactly. With no valid domain (or without the
// option) the topology is auto-derived from GOMAXPROCS: one domain per
// autoDomainWidth-wide cluster, workers spread evenly. Runtime.Topology
// reports the result.
func WithTopology(domains ...Domain) Option {
	return func(o *options) {
		o.domains = append([]Domain(nil), domains...)
	}
}

// resolveTopology normalises the configured domains against the resolved
// worker count: invalid domains are dropped, counts are clamped so the
// domains partition exactly the workers that exist, leftovers get an extra
// domain, and unnamed domains get positional names. With nothing
// configured the topology is derived from GOMAXPROCS (see WithTopology).
// It returns the resolved domains and the workerID→domain-index map.
func (o options) resolveTopology(workers int) ([]Domain, []int32) {
	var domains []Domain
	for _, d := range o.domains {
		if d.valid() {
			domains = append(domains, d)
		}
	}
	if len(domains) == 0 {
		domains = autoDomains(workers)
	}
	// Clamp to the pool: truncate over-subscribed domains, absorb leftover
	// workers into one extra domain.
	remaining := workers
	out := domains[:0]
	for _, d := range domains {
		if remaining == 0 {
			break
		}
		if d.Count > remaining {
			d.Count = remaining
		}
		remaining -= d.Count
		out = append(out, d)
	}
	if remaining > 0 {
		out = append(out, Domain{Count: remaining})
	}
	domains = out
	domainOf := make([]int32, workers)
	w := 0
	for i := range domains {
		if domains[i].Name == "" {
			domains[i].Name = fmt.Sprintf("dom%d", i)
		}
		for k := 0; k < domains[i].Count; k++ {
			domainOf[w] = int32(i)
			w++
		}
	}
	return domains, domainOf
}

// autoDomains derives the default topology: ceil(GOMAXPROCS /
// autoDomainWidth) domains with the workers spread evenly (never more
// domains than workers).
func autoDomains(workers int) []Domain {
	nd := (stdruntime.GOMAXPROCS(0) + autoDomainWidth - 1) / autoDomainWidth
	if nd < 1 {
		nd = 1
	}
	if nd > workers {
		nd = workers
	}
	base, extra := workers/nd, workers%nd
	domains := make([]Domain, nd)
	for i := range domains {
		domains[i].Count = base
		if i < extra {
			domains[i].Count++
		}
	}
	return domains
}

// victimPlan is one worker's precomputed steal order: every other worker
// exactly once, tier-major. seg marks the tier boundaries — order[seg[i]:
// seg[i+1]] is tier i — with four tiers: same-domain fast-class,
// same-domain slow-class, cross-domain fast, cross-domain slow. Tiers
// tierSameLo..tierSameHi are the same-domain half of the hierarchy walk.
type victimPlan struct {
	order []int32
	seg   [5]int32
}

// The victim-plan tier ranges: [tierSameLo, tierSameHi) are the
// same-domain tiers, [tierSameHi, tierCrossHi) the cross-domain tiers.
const (
	tierSameLo  = 0
	tierSameHi  = 2
	tierCrossHi = 4
)

// buildVictimPlans precomputes every worker's tier-ordered victim list
// from the layout. Keeping the plan static (only the per-tier starting
// offset is randomised per sweep) makes the tier ordering a checkable
// invariant rather than an emergent property of per-sweep filtering.
func buildVictimPlans(l classLayout) []victimPlan {
	plans := make([]victimPlan, l.workers)
	for w := 0; w < l.workers; w++ {
		p := &plans[w]
		p.order = make([]int32, 0, l.workers-1)
		tier := func(sameDomain bool, fast bool) {
			for v := 0; v < l.workers; v++ {
				if v == w {
					continue
				}
				if (l.domain(v) == l.domain(w)) != sameDomain {
					continue
				}
				if (v < l.fastN) != fast {
					continue
				}
				p.order = append(p.order, int32(v))
			}
		}
		tier(true, true)
		p.seg[1] = int32(len(p.order))
		tier(true, false)
		p.seg[2] = int32(len(p.order))
		tier(false, true)
		p.seg[3] = int32(len(p.order))
		tier(false, false)
		p.seg[4] = int32(len(p.order))
	}
	return plans
}

// forEachVictim visits worker w's victims in plan order for the tier range
// [loTier, hiTier): tier-major, each tier rotated by a fresh random offset
// so concurrent thieves don't convoy on one victim. visit returns true to
// stop the walk. Within the range every victim is visited exactly once and
// w itself never is — the property the sweep test checks.
func (s *stealScheduler) forEachVictim(w, loTier, hiTier int, visit func(v int) bool) {
	p := &s.victims[w]
	for tier := loTier; tier < hiTier; tier++ {
		lo, hi := int(p.seg[tier]), int(p.seg[tier+1])
		n := hi - lo
		if n == 0 {
			continue
		}
		off := int(s.nextRand(w) % uint64(n))
		for i := 0; i < n; i++ {
			j := lo + off + i
			if j >= hi {
				j -= n
			}
			if visit(int(p.order[j])) {
				return
			}
		}
	}
}

// DomainStats aggregates one memory domain's scheduling traffic, reported
// through Stats.PerDomain in Topology() order. Local vs cross dispatch
// accounting needs the releasing worker's identity, so it only covers
// tasks released from inside the pool (successor releases and hinted
// submissions); externally submitted tasks count in Dispatched alone.
// Everything but the scheduler's injector and cross-domain traffic is a
// read-time grouping of the per-worker signal blocks by domain; on a
// single-domain pool every dispatch is reported local by definition.
type DomainStats struct {
	// Workers is the number of workers grouped into the domain.
	Workers int
	// Dispatched counts tasks executed by the domain's workers.
	Dispatched uint64
	// LocalDispatched counts dispatches of tasks released by (or routed
	// toward) a worker of this same domain — hand-offs that stayed inside
	// the domain's shared cache.
	LocalDispatched uint64
	// CrossDispatched counts dispatches of tasks released in another
	// domain — data moved across the domain boundary.
	CrossDispatched uint64
	// Steals counts tasks the domain's workers stole, from any victim.
	Steals uint64
	// CrossSteals counts the subset of Steals whose victim worker was in
	// another domain (the steal sweep's last-resort tier).
	CrossSteals uint64
	// InjectorPushes counts tasks that landed in this domain's injector.
	InjectorPushes uint64
	// CrossRefills counts tasks this domain's workers pulled out of OTHER
	// domains' injectors — the cross-domain overflow path that keeps an
	// overloaded domain's backlog from stalling while others idle.
	CrossRefills uint64
}

// Topology returns the resolved memory-domain topology — WithTopology
// input after validation and clamping, or the GOMAXPROCS-derived default.
// Worker IDs are assigned to domains in order: the first
// Topology()[0].Count workers form domain 0.
func (r *Runtime) Topology() []Domain {
	return append([]Domain(nil), r.domains...)
}
