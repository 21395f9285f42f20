package runtime

import "repro/internal/flightrec"

// fifoScheduler is a single central FIFO queue — a mutex-guarded ring
// buffer. Popped slots are nilled and oversized buffers shrink, so the
// queue never pins dead task pointers (the old queue[1:] slide kept every
// popped *task alive in the backing array). Pushing, parking, wakeups and
// the policy class gate are the centralLot's.
type fifoScheduler struct {
	centralLot
	queue taskRing
}

func newFIFOScheduler(layout classLayout, pol *policyWords, sig *signals, rec *flightrec.Recorder) *fifoScheduler {
	s := &fifoScheduler{}
	s.init(layout, pol, sig, rec, s.queue.push)
	return s
}

func (s *fifoScheduler) pop(workerID int) (*task, bool) {
	class := s.classOf(workerID)
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.pol.classActive(class) && s.queue.len() > 0 {
			return s.queue.pop(), false
		}
		if s.woken {
			return nil, false
		}
		s.park(workerID)
	}
}

func (s *fifoScheduler) queued() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(s.queue.len())
}
