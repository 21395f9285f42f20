package runtime

// fifoScheduler is a single central FIFO queue — a mutex-guarded ring
// buffer. Popped slots are nilled and oversized buffers shrink, so the
// queue never pins dead task pointers (the old queue[1:] slide kept every
// popped *task alive in the backing array). Pushing is the centralQueue's,
// parking the lot's.
type fifoScheduler struct {
	centralQueue
	queue taskRing
}

func newFIFOScheduler(l *lot) *fifoScheduler {
	s := &fifoScheduler{}
	s.lot, s.enqueue = l, s.queue.push
	return s
}

func (s *fifoScheduler) take(int) (*task, bool) {
	s.mu.Lock()
	t := s.queue.pop()
	s.mu.Unlock()
	return t, false
}

func (s *fifoScheduler) park(workerID int) bool {
	return s.lot.park(workerID, func() bool { return s.queued() > 0 })
}

func (s *fifoScheduler) queued() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(s.queue.len())
}
