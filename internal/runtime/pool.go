package runtime

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// taskFreelist is the first tier of the task-record freelist: a
// fixed-capacity lock-free MPMC ring (Vyukov bounded queue) that — unlike
// the sync.Pool behind it — the garbage collector never clears. The
// steady-state submit→execute→complete cycle recycles records through the
// ring alone, so a GC pause in the middle of a long run cannot reintroduce
// record allocations (the one remaining alloc the dispatch_steal_fan
// benchmark used to show was exactly sync.Pool's victim cache being
// emptied mid-run). Records that do not fit — a transient burst beyond the
// ring's capacity — overflow to the sync.Pool, where the collector may
// reclaim them; the working set the ring pins is bounded by its capacity.
type taskFreelist struct {
	mask  uint64
	cells []freeCell
	// head is the next dequeue position, tail the next enqueue position.
	// Each cell's seq tells whose turn the cell is: seq == pos means free
	// for the enqueuer at pos, seq == pos+1 means filled for the dequeuer
	// at pos (Vyukov's protocol, one CAS per operation, no ABA).
	head atomic.Uint64
	_    [7]uint64
	tail atomic.Uint64
	_    [7]uint64 //nolint:unused // padding keeps head and tail apart
}

// freeCell is one ring slot, padded so neighbouring slots do not share a
// cache line under concurrent put/get.
type freeCell struct {
	seq atomic.Uint64
	t   *task
	_   [6]uint64 //nolint:unused // cache-line padding
}

// newTaskFreelist sizes the ring to the next power of two ≥ n (minimum 64).
func newTaskFreelist(n int) *taskFreelist {
	capacity := 64
	for capacity < n {
		capacity <<= 1
	}
	f := &taskFreelist{
		mask:  uint64(capacity - 1),
		cells: make([]freeCell, capacity),
	}
	for i := range f.cells {
		f.cells[i].seq.Store(uint64(i))
	}
	return f
}

// put offers a retired record to the ring, reporting false when the ring is
// full (the caller overflows to the sync.Pool tier).
func (f *taskFreelist) put(t *task) bool {
	pos := f.tail.Load()
	for {
		cell := &f.cells[pos&f.mask]
		seq := cell.seq.Load()
		switch {
		case seq == pos:
			if f.tail.CompareAndSwap(pos, pos+1) {
				cell.t = t
				cell.seq.Store(pos + 1)
				return true
			}
			pos = f.tail.Load()
		case seq < pos:
			return false // full: the slot still holds an unconsumed record
		default:
			pos = f.tail.Load()
		}
	}
}

// get takes a record from the ring, nil when it is empty.
func (f *taskFreelist) get() *task {
	pos := f.head.Load()
	for {
		cell := &f.cells[pos&f.mask]
		seq := cell.seq.Load()
		switch {
		case seq == pos+1:
			if f.head.CompareAndSwap(pos, pos+1) {
				t := cell.t
				cell.t = nil
				cell.seq.Store(pos + f.mask + 1)
				return t
			}
			pos = f.head.Load()
		case seq <= pos:
			return nil // empty: no producer has filled this slot yet
		default:
			pos = f.head.Load()
		}
	}
}

// scratchBuckets bounds the batch scratch the runtime recycles: capacities
// 2, 4, … 2^scratchBuckets tasks (32 KiB of pointers at the top). A larger
// batch allocates its scratch and leaves it to the collector — pooling it
// would pin megabytes for the sake of one submission.
const scratchBuckets = 12

// scratchPool recycles submitSpecs' per-batch []*task scratch, bucketed by
// power-of-two capacity so a small batch never takes (or waits behind) a
// large batch's slice. Slices travel as pointers so Put does not allocate
// a header; they are returned scrubbed, so a pooled scratch pins no task.
type scratchPool [scratchBuckets]sync.Pool

// get returns a scratch with capacity ≥ n (n ≥ 2).
func (p *scratchPool) get(n int) *[]*task {
	b := bits.Len(uint(n - 1)) // 2^b ≥ n
	if b > scratchBuckets {
		s := make([]*task, n)
		return &s
	}
	if s, ok := p[b-1].Get().(*[]*task); ok {
		return s
	}
	s := make([]*task, 1<<b)
	return &s
}

// put scrubs the first n slots — all the borrower wrote — and recycles s
// (an over-size scratch is left to the collector).
func (p *scratchPool) put(s *[]*task, n int) {
	b := bits.Len(uint(cap(*s) - 1))
	if b > scratchBuckets {
		return
	}
	clear((*s)[:n])
	p[b-1].Put(s)
}
