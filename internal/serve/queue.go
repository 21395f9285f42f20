package serve

// tenantQueue is one tenant's job queue: a FIFO per lane and the total
// depth. Admission bounds the depth (the queue-full rung) and reserves its
// last quarter for the control lane (the backpressure rung) before a push.
// All methods are called under the server's lock.
type tenantQueue struct {
	lanes [laneCount][]*job
	depth int
}

// push appends an admitted job to its lane.
func (q *tenantQueue) push(j *job) {
	q.lanes[j.lane] = append(q.lanes[j.lane], j)
	q.depth++
}

// popLane removes and returns the oldest job of one lane, or nil.
func (q *tenantQueue) popLane(l Lane) *job {
	fifo := q.lanes[l]
	if len(fifo) == 0 {
		return nil
	}
	j := fifo[0]
	fifo[0] = nil // do not pin completed jobs through the backing array
	q.lanes[l] = fifo[1:]
	if len(q.lanes[l]) == 0 {
		q.lanes[l] = nil // let a drained lane's backing array go
	}
	q.depth--
	return j
}
