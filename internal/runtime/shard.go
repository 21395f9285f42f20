package runtime

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	stdruntime "runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// maxShards bounds the dependence-tracker shard count so a shard set fits
// in one uint64 bitmask (the lock-plan representation used on the submit
// path).
const maxShards = 64

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

// depShard is one slice of the dependence tracker: the renamer state for
// every data key that hashes here. Shards are locked in ascending index
// order — the total order that makes multi-shard submissions deadlock-free
// and serialises any two registrations that share a key.
type depShard struct {
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
	// predecessor refs into and linkPreds consumes, valid only while this
	// shard (the one the registering task's first key hashes to) is
	// locked. Living on the
	// shard rather than the task record, its capacity converges to the
	// workload's fan width once per shard instead of once per pooled
	// record — records drifting into a wide-fan role for the first time
	// were the last steady-state allocation trickle.
	predScratch []taskRef
}

func newShards(n int) []*depShard {
	shards := make([]*depShard, n)
	for i := range shards {
		shards[i] = &depShard{keys: make(map[any]keyState), sweepAt: sweepFloor}
	}
	return shards
}

// resolveShards turns the WithShards option into the actual shard count:
// 0 (auto) becomes the next power of two ≥ GOMAXPROCS, everything is
// clamped to [1, maxShards].
func resolveShards(n int) int {
	if n <= 0 {
		n = 1
		for n < stdruntime.GOMAXPROCS(0) {
			n <<= 1
		}
	}
	if n > maxShards {
		n = maxShards
	}
	return n
}

// shardIndex maps a dependence key to its shard. Equal keys always map to
// the same shard (the only correctness requirement); distinct keys sharing
// a shard merely share a lock. Common key types get an inline integer mix,
// pointer-kind keys a mix of their address (the collector does not move
// heap objects, and a key stays reachable through the tracker's own map
// entry for as long as its address matters); anything else falls back to
// hashing the printed form, which is stable for any comparable value.
func (r *Runtime) shardIndex(key any) int {
	n := uint64(len(r.shards))
	if n == 1 {
		return 0
	}
	var h uint64
	switch k := key.(type) {
	case string:
		h = hashString(k)
	case int:
		h = mix64(uint64(k))
	case int8:
		h = mix64(uint64(k))
	case int16:
		h = mix64(uint64(k))
	case int32:
		h = mix64(uint64(k))
	case int64:
		h = mix64(uint64(k))
	case uint:
		h = mix64(uint64(k))
	case uint8:
		h = mix64(uint64(k))
	case uint16:
		h = mix64(uint64(k))
	case uint32:
		h = mix64(uint64(k))
	case uint64:
		h = mix64(k)
	case uintptr:
		h = mix64(uint64(k))
	case float64:
		h = mix64(math.Float64bits(k))
	case float32:
		h = mix64(uint64(math.Float32bits(k)))
	default:
		switch v := reflect.ValueOf(key); v.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Chan:
			h = mix64(uint64(v.Pointer()))
		default:
			var buf [64]byte
			h = hashString(fmt.Appendf(buf[:0], "%T\x00%v", key, key))
		}
	}
	return int(h % n)
}

// mix64 is the splitmix64 finaliser: a cheap, well-distributed integer
// hash, so consecutive keys (block indices…) spread across shards.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashString is FNV-1a, inlined to avoid the hash.Hash allocation on the
// common string-key path (and, over bytes, on the printed-form fallback).
func hashString[T string | []byte](s T) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// shardPlan computes the lock set for registering t: one bit per shard the
// task's dependence keys hash to, each key's shard kept in t for trackDeps.
// A dependence-free task locks nothing (lockShards(0) is a no-op): its
// registration touches no tracker state.
func (r *Runtime) shardPlan(t *task) (mask uint64) {
	deps := t.deps()
	if len(deps) == 0 {
		return 0
	}
	idx := t.shardInl[:0]
	if len(deps) > inlineArity {
		idx = t.shardOvf[:0]
	}
	for _, d := range deps {
		i := r.shardIndex(d.Key)
		idx = append(idx, uint8(i)) // maxShards fits a byte
		mask |= 1 << i
	}
	if len(deps) > inlineArity {
		t.shardOvf = idx
	}
	return mask
}

// trackDeps runs the renamer for t: it resolves RAW/WAR/WAW hazards
// against the per-key tracking state and updates that state. Predecessor
// references are collected into the predScratch of the first key's shard —
// returned for linkPreds to consume while the shard is still locked. Every
// shard t's keys hash to must be locked by the caller.
func (r *Runtime) trackDeps(t *task) []taskRef {
	if len(t.deps()) == 0 {
		return nil
	}
	shardOf := t.depShards()
	ls := r.shards[shardOf[0]]
	preds := ls.predScratch[:0]
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
	for i, d := range t.deps() {
		s := r.shards[shardOf[i]]
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
	ls.predScratch = preds // write back so the grown capacity is kept
	return preds
}

// sweepFloor is the number of key records below which a shard never
// scavenges: a workload that reuses a few hundred keys never pays for a
// sweep.
const sweepFloor = 512

// maxSpare and maxSpareCap bound what a shard keeps for reuse: as many
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
func (s *depShard) sweep() {
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
func (s *depShard) readerRoom(rs []taskRef) []taskRef {
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
	// shard (the capacity is kept for the next registration).
	clear(preds)
}

// lockShards acquires every shard in mask in ascending index order. Any
// two submissions with overlapping masks are thereby fully serialised
// (their registration critical sections cannot interleave), which keeps
// per-key dependence chains consistent and the resulting graph acyclic.
func (r *Runtime) lockShards(mask uint64) {
	for ; mask != 0; mask &= mask - 1 {
		r.shards[bits.TrailingZeros64(mask)].mu.Lock()
	}
}

// unlockShards releases every shard in mask.
func (r *Runtime) unlockShards(mask uint64) {
	for ; mask != 0; mask &= mask - 1 {
		r.shards[bits.TrailingZeros64(mask)].mu.Unlock()
	}
}
