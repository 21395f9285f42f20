package runtime

import "sync/atomic"

// policyWords is the policy layer: every scheduling decision the runtime
// used to freeze at construction — locality window, injector refill
// chunk, criticality-first placement, the active worker-class set — lives
// here as one cached atomic word. The three schedulers consult the words
// on their hot paths (a plain atomic load each, no locks, no
// allocations); the adaptive controller is the only writer. A runtime
// without WithAdaptive still routes every decision through these words —
// they are simply never written after construction, so the policy layer
// is the single place placement behaviour is defined, adaptive or not.
//
// Which scheduler consults which word:
//
//	window      — steal scheduler: deque/sibling/submit-buffer bound of
//	              the locality path (localRoom, spillSibling, submitLocal).
//	refillChunk — steal scheduler: own-domain injector refill cap.
//	critFirst   — steal scheduler: when set, positive-priority tasks are
//	              routed through a central crit heap that fast-class
//	              workers drain first and slow workers only as a last
//	              resort — the CATS placement rule grafted onto the steal
//	              scheduler, switchable per phase.
//	classMask   — all three schedulers: bit c set means class c's workers
//	              may dispatch; a worker whose class bit is clear parks at
//	              the scheduler's gate until the mask widens. Bit 0 (the
//	              fast class) can never be cleared.
type policyWords struct {
	window      atomic.Int64
	refillChunk atomic.Int64
	critFirst   atomic.Uint32
	classMask   atomic.Uint64
	// fullMask has one bit per resolved worker class; immutable. classMask
	// == fullMask is the ungated steady state every fast path tests for.
	fullMask uint64
}

// newPolicyWords resolves the construction-time configuration into the
// initial policy: the configured locality window, the default refill
// chunk, crit-first off, every class active.
func newPolicyWords(window, classes int) *policyWords {
	p := &policyWords{fullMask: 1<<uint(classes) - 1}
	p.window.Store(int64(window))
	p.refillChunk.Store(injectorGrab)
	p.classMask.Store(p.fullMask)
	return p
}

// classActive reports whether class c's workers may dispatch.
func (p *policyWords) classActive(c int) bool {
	return p.classMask.Load()&(1<<uint(c)) != 0
}

// gated reports whether any class is currently parked — the schedulers'
// wakeup paths broadcast instead of signalling while this holds, so a
// signal can never die on a gated worker.
func (p *policyWords) gated() bool {
	return p.classMask.Load() != p.fullMask
}

// setClassMask installs a new active-class set, forcing bit 0: the fast
// class is never parked, so some worker can always dispatch any task and
// class gating can never deadlock the pool.
func (p *policyWords) setClassMask(m uint64) {
	p.classMask.Store((m | 1) & p.fullMask)
}

// setWindow installs a new effective locality window (≤ 0 disables the
// locality path, exactly like WithLocalityWindow(0)).
func (p *policyWords) setWindow(w int64) { p.window.Store(w) }

// setRefillChunk installs a new own-domain injector refill cap (clamped
// to ≥ 1).
func (p *policyWords) setRefillChunk(n int64) {
	if n < 1 {
		n = 1
	}
	p.refillChunk.Store(n)
}

// setCritFirst switches the steal scheduler's criticality-first placement.
func (p *policyWords) setCritFirst(on bool) {
	if on {
		p.critFirst.Store(1)
	} else {
		p.critFirst.Store(0)
	}
}
