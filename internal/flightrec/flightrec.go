package flightrec

import (
	stdruntime "runtime"
	"sort"
	"sync/atomic"
	"time"
)

// Options configures a Recorder.
type Options struct {
	// PerWorkerEvents is the per-ring capacity in events, rounded up to a
	// power of two (minimum 64). Each worker owns one ring, the submit
	// lane (see RecordLane) one more, and the shared external ring is
	// last, so total memory is (workers+2) × capacity × 48 bytes, fixed at
	// construction. Default 2048.
	PerWorkerEvents int
}

// Recorder is an always-on flight recorder: one fixed-memory event ring per
// worker (single-writer, written lock-free on the dispatch path), one submit
// lane whose serialisation the caller provides, and one shared ring for the
// other off-pool events (serialised by a spin lock — those goroutines have
// no ring of their own, and the critical section is a few plain stores and
// a clock read, far too short for a sleeping mutex to pay off). Every event
// is stamped from the monotonic clock as it is recorded; the recorder runs
// no goroutine. Recording never allocates and never blocks on a reader;
// snapshots merge the rings into one timeline ordered by the global
// sequence number and never block a writer.
type Recorder struct {
	workers int
	rings   []ring // worker rings, then the lane ring, then the external ring

	// laneNext/laneEnd are the submit lane's current reserved sequence
	// block. The lane is a single-writer ring whose serialisation the
	// CALLER provides — the task runtime records a pending task's submit
	// event while holding its dependence-tracker lock, which removes even
	// the spin lock from the steady submit path. Plain words on purpose:
	// an atomic Store compiles to a full-barrier exchange on amd64, and
	// paying one per recorded submit is exactly the cost the lane exists
	// to avoid. EventCount never reads them — it works from laneReserved
	// and the lane ring's head instead.
	laneNext uint64
	laneEnd  uint64
	// laneReserved counts sequence numbers ever reserved by the lane
	// (bumped once per block refill, so the atomic add is 1/laneSeqBlock
	// amortised). reserved − ring head = the lane's unused reservation,
	// which is what EventCount must exclude.
	laneReserved atomic.Uint64

	// extLock serialises the external ring's writers. Unlike the lane, the
	// external ring allocates every sequence FRESH from gseq: it records
	// ready-at-submit events, which must sort after the same task's lane
	// submit event, and only a fresh allocation (causally after the lane
	// block's reservation, hence larger than everything in it) guarantees
	// that.
	extLock atomic.Uint32

	// gseq is the global event sequence: one atomic add per event gives the
	// cross-ring total order snapshots merge by. It is the one word every
	// recording thread contends on, so it gets a cache line to itself —
	// otherwise the clock anchor below, which every stamp reads, would share
	// its line and every stamp would pay for the sequence traffic.
	_    [64]byte
	gseq atomic.Uint64
	_    [56]byte
	// start is the monotonic anchor taken at New and wall its UnixNano:
	// an event's Time is wall plus the monotonic time since start (stamp).
	start time.Time
	wall  int64
}

// New creates a Recorder for a pool of the given worker count. It starts
// no goroutine.
func New(workers int, opts Options) *Recorder {
	if workers < 1 {
		workers = 1
	}
	if opts.PerWorkerEvents <= 0 {
		opts.PerWorkerEvents = 2048
	}
	r := &Recorder{workers: workers, rings: make([]ring, workers+2), start: time.Now()}
	r.wall = r.start.UnixNano()
	for i := range r.rings {
		r.rings[i].init(opts.PerWorkerEvents)
	}
	return r
}

// stamp is the event clock (UnixNano): wall time at New plus the monotonic
// time since, so stamps never step back with the wall clock.
func (r *Recorder) stamp() int64 { return r.wall + int64(time.Since(r.start)) }

// Close does nothing: the recorder holds no goroutine or other resource to
// release. It stays for callers that still defer it, such as the repo
// benchmark's recorder arm.
func (r *Recorder) Close() {}

// Workers returns the worker-ring count the recorder was built for.
func (r *Recorder) Workers() int { return r.workers }

// RecordWorker records an event on the given worker's ring. It must only
// be called from that worker's own goroutine (the rings are single-writer);
// it is lock-free and allocation-free. A negative worker — a goroutine
// outside the pool finishing a task, such as a runtime waiter — records on
// the external ring instead, as RecordExternal does.
func (r *Recorder) RecordWorker(worker int, kind Kind, task, arg, arg2 uint64) {
	if worker < 0 {
		r.RecordExternal(kind, task, arg, arg2)
		return
	}
	r.rings[worker].write(r.gseq.Add(1), r.stamp(), kind, int32(worker), task, arg, arg2)
}

// RecordWorker2 records two adjacent events on the given worker's ring with
// one sequence allocation, one clock read and one publish — half the
// atomic traffic of two RecordWorker calls. The completion path uses it to
// pair a task's complete with its first successor's ready. Same
// single-writer rule, and the same external ring for a negative worker, as
// RecordWorker.
func (r *Recorder) RecordWorker2(worker int, k1 Kind, t1, a1, a21 uint64, k2 Kind, t2, a2, a22 uint64) {
	if worker < 0 {
		r.lockExternal()
		s := r.gseq.Add(2)
		r.rings[r.workers+1].write2(s-1, r.stamp(), ExternalWorker, k1, t1, a1, a21, k2, t2, a2, a22)
		r.extLock.Store(0)
		return
	}
	s := r.gseq.Add(2)
	r.rings[worker].write2(s-1, r.stamp(), int32(worker), k1, t1, a1, a21, k2, t2, a2, a22)
}

// laneSeqBlock is how many sequence numbers one lane reservation grabs.
const laneSeqBlock = 16

// RecordLane records an event on the submit lane. The caller must provide
// the serialisation (the runtime holds its dependence-tracker lock), which
// is what makes this path lock-free here: one amortised global RMW per
// laneSeqBlock events and plain slot stores.
//
// The reserved block makes lane sequences stale-low, which is sound ONLY
// because the lane carries nothing but the first event of each task (the
// pending submit): every later event of that task allocates fresh from
// gseq — causally after this block's reservation, hence larger than every
// sequence in it — and so sorts after. Collect completes the guarantee by
// reading the lane ring last, so no merge batch holds a task's later
// event without the submit that precedes it.
func (r *Recorder) RecordLane(kind Kind, task, arg, arg2 uint64) {
	s := r.laneNext
	if s == r.laneEnd {
		end := r.gseq.Add(laneSeqBlock)
		s = end - laneSeqBlock + 1
		r.laneEnd = end + 1
		r.laneReserved.Add(laneSeqBlock)
	}
	r.laneNext = s + 1
	r.rings[r.workers].write(s, r.stamp(), kind, ExternalWorker, task, arg, arg2)
}

// RecordExternal records a submit-path event on the shared external ring,
// safe from any goroutine. Allocation-free; one short spin-locked section.
// Sequences here are always fresh — see the extLock field comment.
func (r *Recorder) RecordExternal(kind Kind, task, arg, arg2 uint64) {
	r.lockExternal()
	r.rings[r.workers+1].write(r.gseq.Add(1), r.stamp(), kind, ExternalWorker, task, arg, arg2)
	r.extLock.Store(0)
}

// lockExternal takes extLock; the caller stores 0 to release it.
func (r *Recorder) lockExternal() {
	for i := 0; !r.extLock.CompareAndSwap(0, 1); i++ {
		if i&63 == 63 {
			stdruntime.Gosched() // don't burn a timeslice on a preempted holder
		}
	}
}

// EventCount reports how many events have been recorded in total (including
// ones already overwritten). With concurrent recording in flight the count
// is accurate to within one lane reservation block.
func (r *Recorder) EventCount() uint64 {
	// Written first, reserved second: reserved only grows, so the
	// difference (the lane's unused reservation) never underflows.
	written := r.rings[r.workers].head.Load()
	return r.gseq.Load() - (r.laneReserved.Load() - written)
}

// Now reads the recorder's event clock (UnixNano) — the time base events
// are stamped with, for consumers that compare event ages against it.
func (r *Recorder) Now() int64 { return r.stamp() }

// Cursor tracks per-ring read positions across Collect calls, so an online
// consumer sees each event exactly once and knows when the window lapped
// it. The zero Cursor starts at the beginning of time.
type Cursor struct {
	pos []uint64
}

// Collect appends every event recorded since the cursor's last positions to
// buf, merged across rings and sorted by global sequence, advancing the
// cursor. gap reports that at least one ring overwrote events the cursor
// had not consumed (the consumer fell behind the window) — the verifier
// uses it to switch to conservative tracking rather than report phantom
// violations.
func (r *Recorder) Collect(cur *Cursor, buf []Event) (events []Event, gap bool) {
	if cur.pos == nil {
		cur.pos = make([]uint64, len(r.rings))
	}
	events = buf
	// Read order matters: worker rings and the external ring first, the
	// lane ring LAST. Lane sequences are stale-low (block-reserved), so a
	// lane submit's sequence is always smaller than any later event of the
	// same task — reading the lane last guarantees a batch never holds a task's
	// later event without the submit that precedes it, even though the
	// submit was written (wall-clock) earlier.
	collect := func(i int) {
		var g bool
		events, cur.pos[i], g = r.rings[i].snapshot(cur.pos[i], events)
		gap = gap || g
	}
	for i := 0; i < r.workers; i++ {
		collect(i)
	}
	collect(r.workers + 1) // external ring
	collect(r.workers)     // lane ring
	sort.Slice(events, func(i, j int) bool { return events[i].Seq < events[j].Seq })
	return events, gap
}

// Snapshot returns the full resident window of every ring merged into one
// timeline ordered by global sequence.
func (r *Recorder) Snapshot() []Event {
	var cur Cursor
	events, _ := r.Collect(&cur, nil)
	return events
}

// Tail returns the merged timeline of the last d of wall-clock time (the
// snapshot-on-demand view: "what did the runtime do in the last N
// seconds"), bounded by what is still resident in the rings: every event
// stamped at or after now − d, in sequence order. It filters rather than
// cutting a prefix because Time rises with Seq only within a ring — a lane
// event's block-reserved sequence sorts it before older events of other
// rings.
func (r *Recorder) Tail(d time.Duration) []Event {
	since := r.stamp() - d.Nanoseconds()
	all := r.Snapshot()
	tail := all[:0]
	for _, e := range all {
		if e.Time >= since {
			tail = append(tail, e)
		}
	}
	return tail
}
