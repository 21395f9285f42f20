package serve

import "slices"

// tenantQueue is one tenant's job queue: a FIFO per lane and the total
// depth. Admission bounds the depth (the queue-full rung) and reserves its
// last quarter for the control lane (the backpressure rung) before a push.
// All methods are called under the server's lock.
type tenantQueue struct {
	lanes [laneCount][]*job
	depth int
}

// laneKeep is the largest array a drained lane keeps for its next push.
// Tenants live as long as the server, so a lane that once ran deeper gives
// its array back when it drains.
const laneKeep = 4

// push appends an admitted job to its lane.
func (q *tenantQueue) push(j *job) {
	q.lanes[j.lane] = append(q.lanes[j.lane], j)
	q.depth++
}

// popLane removes and returns the oldest job of one lane, or nil. The lane
// shifts down in place, at most QueueCap slots, and clears the slot it
// vacates, so that no popped job stays pinned and the array keeps its
// start for the next push.
func (q *tenantQueue) popLane(l Lane) *job {
	fifo := q.lanes[l]
	if len(fifo) == 0 {
		return nil
	}
	j := fifo[0]
	if fifo = slices.Delete(fifo, 0, 1); len(fifo) == 0 && cap(fifo) > laneKeep {
		fifo = nil
	}
	q.lanes[l] = fifo
	q.depth--
	return j
}
