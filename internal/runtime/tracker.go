package runtime

import (
	"slices"
	"sync"
	"sync/atomic"
)

// keyState is everything the tracker holds for one data key: the last
// task that wrote it and the tasks that read it since. Both are
// generation-tagged references: with task records pooled, a referenced
// record may have been recycled for an unrelated task by the time a later
// registration consults it, and the generation check (linkPreds) filters
// those dead entries out. One record per key means a dependence costs one
// map lookup and one store whatever its mode.
type keyState struct {
	writer  taskRef
	readers []taskRef
}

// tracker is the dependence tracker: the renamer state for every data
// key, behind one mutex. Holding it for a whole registration serialises
// any two registrations, which keeps each key's chain in submission order
// and the graph acyclic. A dependence-free task never takes it.
type tracker struct {
	mu   sync.Mutex
	keys map[any]keyState
	// spare holds the reader lists of keys the sweep deleted (empty, every
	// slot zeroed), for the next keys that need one: a service minting
	// fresh keys per job reuses the lists of the jobs that finished
	// instead of growing a new one per key. At most maxSpare lists of at
	// most maxSpareCap slots each.
	spare [][]taskRef
	// sweepAt is the record count past which the next registration
	// scavenges keys (see sweep).
	sweepAt int
	// predScratch is the registration scratch trackDeps collects
	// predecessor refs into and linkPreds consumes, valid only while mu is
	// held. Living on the tracker rather than the task record, its
	// capacity converges to the workload's fan width once instead of once
	// per pooled record — records drifting into a wide-fan role for the
	// first time were the last steady-state allocation trickle.
	predScratch []taskRef
}

// trackDeps runs the renamer for t: it resolves RAW/WAR/WAW hazards
// against the per-key tracking state and updates that state. Predecessor
// references are collected into predScratch, returned for linkPreds to
// consume while s.mu is still held. Caller holds s.mu.
func (s *tracker) trackDeps(t *task) []taskRef {
	if len(t.deps()) == 0 {
		return nil
	}
	preds := s.predScratch[:0]
	addPred := func(p taskRef) {
		if p.t == nil || p.t == t {
			return
		}
		// Only the whole reference is a duplicate: a dead reference to a
		// record and a live one to its next life name different tasks, and
		// keeping only the first would drop the live edge.
		for _, q := range preds {
			if q == p {
				return
			}
		}
		preds = append(preds, p)
	}
	self := t.ref()
	for _, d := range t.deps() {
		k := s.keys[d.Key]
		// RAW for a reader; for a writer WAW, which even a plain Out waits
		// for, since we do not rename storage.
		addPred(k.writer)
		if d.Mode == ModeIn {
			k.readers = append(s.readerRoom(k.readers), self)
		} else {
			// WAR: wait for every reader since the previous writer.
			for _, rd := range k.readers {
				addPred(rd)
			}
			// Zero the slots before truncating: readers[:0] alone keeps
			// every old reader task reachable through the backing array
			// until later readers happen to overwrite each slot.
			clear(k.readers)
			k.writer, k.readers = self, k.readers[:0]
		}
		s.keys[d.Key] = k
		if len(s.keys) > s.sweepAt {
			s.sweep()
		}
	}
	s.predScratch = preds // write back so the grown capacity is kept
	return preds
}

// sweepFloor is the number of key records below which the tracker never
// scavenges: a workload that reuses a few hundred keys never pays for a
// sweep.
const sweepFloor = 512

// maxSpare and maxSpareCap bound what the tracker keeps for reuse: as many
// lists as the floor lets accumulate between two sweeps, and no list so
// long that a few-reader key would pin a fan's worth of slots.
const maxSpare, maxSpareCap = sweepFloor, 8

// sweep forgets the keys whose tasks are all gone: it drops every
// reference whose record has since been retired (the generation moved on —
// generations only grow, so the unlocked read can at worst keep a
// reference one sweep too long) and deletes the records left empty, whose
// reader lists go to spare. A list is zeroed over the slots it used before
// it is shelved, so it pins no retired record while it waits and hands
// its next key an empty list, not another key's readers. linkPreds already
// skips a dead reference, so removing one is invisible to ordering; what
// it buys is that a service minting fresh keys per job holds tracker state
// for the jobs in flight, not for every job it ever ran. The next sweep is
// due at twice what survived, which keeps the cost amortised constant per
// insertion. Caller holds s.mu.
func (s *tracker) sweep() {
	for key, k := range s.keys {
		live := dropDead(k.readers)
		if k.writer.t != nil && k.writer.dead() {
			k.writer = taskRef{}
		}
		if k.readers = live; k.writer.t != nil || len(live) > 0 {
			s.keys[key] = k
			continue
		}
		delete(s.keys, key)
		if c := cap(live); c > 0 && c <= maxSpareCap && len(s.spare) < maxSpare {
			s.spare = append(s.spare, live)
		}
	}
	s.sweepAt = 2*len(s.keys) + sweepFloor
}

// readerRoom returns a key's reader list with room for one more reader. A
// key's first list is a shelved one or a fresh one of maxSpareCap slots,
// so no list regrows for a key with that few readers. A full list first
// drops its dead readers in place, so a key that is only ever read holds
// its live readers, not its history, without waiting for a sweep; it grows
// only if that freed less than half of it, which keeps the scans amortised
// constant per reader. Caller holds s.mu.
func (s *tracker) readerRoom(rs []taskRef) []taskRef {
	switch n := len(s.spare); {
	case cap(rs) == 0 && n > 0:
		rs, s.spare[n-1], s.spare = s.spare[n-1], nil, s.spare[:n-1]
	case len(rs) == cap(rs): // a list with no slots at all grows to maxSpareCap
		if rs = dropDead(rs); 2*len(rs) >= cap(rs) {
			rs = slices.Grow(rs, max(cap(rs), maxSpareCap))
		}
	}
	return rs
}

// dropDead compacts a reader list to its live references in place and
// zeroes the slots it vacates, so the list pins no retired record.
func dropDead(rs []taskRef) []taskRef {
	live := rs[:0]
	for _, rd := range rs {
		if !rd.dead() {
			live = append(live, rd)
		}
	}
	clear(rs[len(live):])
	return live
}

// linkPreds registers the dependence edges collected by trackDeps. npreds
// starts at 1 (the submission's own reference) so a predecessor completing
// concurrently with registration can never drive the counter to zero
// before every edge is in place; the caller's final decrement releases the
// reference and publishes the task.
//
// Each predecessor reference is generation-checked under the
// predecessor's mutex: a mismatch means the record was retired (its task
// completed) and possibly reused for an unrelated task, so the reference
// is dead and no other field of the record may be read — the generation
// bump happens inside complete's critical section, which makes this check
// exact, not best-effort.
func (r *Runtime) linkPreds(t *task, preds []taskRef) {
	atomic.StoreInt32(&t.npreds, 1)
	for _, ref := range preds {
		p := ref.t
		p.mu.Lock()
		if ref.dead() {
			p.mu.Unlock() // recycled record: the predecessor completed long ago
			continue
		}
		if !p.done {
			p.addSucc(t)
			atomic.AddInt32(&t.npreds, 1)
			// CATS: a task with a successor is raised above it (one hop,
			// unweighted). A predecessor already queued keeps its heap
			// entry; the scheduler reads the raised priority when it
			// places it (see catsScheduler.take).
			if est := atomic.LoadInt64(&t.priority) + 1; est > atomic.LoadInt64(&p.priority) {
				atomic.StoreInt64(&p.priority, est)
			}
		}
		p.mu.Unlock()
	}
	// Clear the scratch so completed predecessors are not pinned by the
	// tracker (the capacity is kept for the next registration).
	clear(preds)
}
