package serve

import (
	"testing"
	"unsafe"
)

// TestTenantQueueLanesAndBound pins the queue's dispatch-side contract:
// FIFO within a lane, lanes independent, and the depth that admission's
// queue-full and reserve rungs read, kept by both push and pop. No popped
// job is pinned by a slot past a lane's length; a drained lane keeps an
// array of at most laneKeep jobs, so a push into it allocates nothing, and
// lets a larger one go.
func TestTenantQueueLanesAndBound(t *testing.T) {
	var q tenantQueue
	mk := func(id string, l Lane) *job { return &job{id: id, lane: l} }
	unpinned := func(when string) {
		t.Helper()
		for l := Lane(0); l < laneCount; l++ {
			fifo := q.lanes[l]
			if len(fifo) == 0 && cap(fifo) > laneKeep {
				t.Errorf("%s: drained %s lane keeps %d slots, bound %d", when, l, cap(fifo), laneKeep)
			}
			for i, j := range fifo[len(fifo):cap(fifo)] {
				if j != nil {
					t.Errorf("%s: %s lane pins popped job %s in slot %d", when, l, j.id, len(fifo)+i)
				}
			}
		}
	}

	if j := q.popLane(LaneData); j != nil {
		t.Fatalf("pop from empty queue returned %v", j)
	}
	q.push(mk("c1", LaneControl))
	q.push(mk("d1", LaneData))
	q.push(mk("d2", LaneData))
	q.push(mk("t1", LaneTelemetry))
	if q.depth != 4 {
		t.Fatalf("depth = %d after 4 pushes, want 4", q.depth)
	}

	// Lanes are independent FIFOs.
	if j := q.popLane(LaneData); j == nil || j.id != "d1" {
		t.Fatalf("data pop = %v, want d1", j)
	}
	unpinned("one data job popped")
	if j := q.popLane(LaneData); j == nil || j.id != "d2" {
		t.Fatalf("data pop = %v, want d2", j)
	}
	if j := q.popLane(LaneData); j != nil {
		t.Fatalf("drained data lane returned %v", j)
	}
	if j := q.popLane(LaneControl); j == nil || j.id != "c1" {
		t.Fatalf("control pop = %v, want c1", j)
	}
	if j := q.popLane(LaneTelemetry); j == nil || j.id != "t1" {
		t.Fatalf("telemetry pop = %v, want t1", j)
	}
	if q.depth != 0 {
		t.Fatalf("depth = %d after draining, want 0", q.depth)
	}
	unpinned("drained")

	// A lane filled past laneKeep keeps FIFO order across the shifts and
	// lets its array go when it drains.
	jobs := make([]*job, 3*laneKeep)
	for i := range jobs {
		jobs[i] = mk(string(rune('a'+i)), LaneData)
	}
	cycle := func(n int) {
		for _, j := range jobs[:n] {
			q.push(j)
		}
		for _, want := range jobs[:n] {
			if j := q.popLane(LaneData); j != want {
				t.Fatalf("pop = %v, want %s", j, want.id)
			}
		}
	}
	cycle(len(jobs))
	if q.lanes[LaneData] != nil {
		t.Errorf("a drained lane keeps a %d-job array, bound %d", cap(q.lanes[LaneData]), laneKeep)
	}
	// One within laneKeep is served from the array it keeps.
	if n := testing.AllocsPerRun(4, func() { cycle(laneKeep) }); n != 0 {
		t.Errorf("a fill and drain of a kept lane allocates %.0f objects, want 0", n)
	}
	unpinned("after fill and drain cycles")
}

// TestDrainedTenantsHoldLittle counts the queue memory that tenants keep
// once their jobs have been dispatched. Tenants are never removed, so what
// each keeps, it keeps for the server's life: a tenant that had one job
// in every lane holds one slot per lane, and one whose lanes ran a whole
// QueueCap deep (the default) holds nothing.
func TestDrainedTenantsHoldLittle(t *testing.T) {
	const tenants, queueCap = 1000, 64
	qs := make([]tenantQueue, tenants)
	for i := range qs {
		depth := 1
		if i%10 == 0 {
			depth = queueCap
		}
		for l := Lane(0); l < laneCount; l++ {
			for k := 0; k < depth; k++ {
				qs[i].push(&job{lane: l})
			}
			for qs[i].popLane(l) != nil {
			}
		}
	}
	held := 0
	for i := range qs {
		for l, fifo := range qs[i].lanes {
			if i%10 == 0 && fifo != nil {
				t.Fatalf("tenant %d keeps a %d-job %s array after running %d deep", i, cap(fifo), Lane(l), queueCap)
			}
			held += cap(fifo) * int(unsafe.Sizeof((*job)(nil)))
		}
	}
	if want := tenants * int(laneCount) * int(unsafe.Sizeof((*job)(nil))); held > want {
		t.Errorf("%d drained tenants hold %d B of queue arrays, want at most %d (one slot per lane)", tenants, held, want)
	}
}
