package runtime

import "sync/atomic"

// policyWords is the policy layer: the one scheduling decision that can
// change while the pool runs — which worker classes may dispatch — as one
// cached atomic word. All three schedulers consult it at the top of pop (a
// plain atomic load, no lock, no allocation); the adaptive controller is
// the only writer. A runtime without WithAdaptive never writes it after
// construction, so every class stays active.
//
// Bit c of classMask set means class c's workers may dispatch; a worker
// whose class bit is clear parks at the scheduler's gate until the mask
// widens. Bit 0 (the fast class) can never be cleared.
//
// Everything else about placement — the locality window, the injector
// refill chunk — is fixed at construction: rules that adapted them
// measured at no benefit (CHANGES.md keeps the measurements).
type policyWords struct {
	classMask atomic.Uint64
	// fullMask has one bit per resolved worker class; immutable. classMask
	// == fullMask is the ungated steady state every fast path tests for.
	fullMask uint64
}

// newPolicyWords builds the initial policy: every class active.
func newPolicyWords(classes int) *policyWords {
	p := &policyWords{fullMask: 1<<uint(classes) - 1}
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
