package serve

import "testing"

// TestTenantQueueLanesAndBound pins the queue's dispatch-side contract:
// FIFO within a lane, lanes independent, and the depth that admission's
// queue-full and reserve rungs read, kept by both push and pop.
func TestTenantQueueLanesAndBound(t *testing.T) {
	var q tenantQueue
	mk := func(id string, l Lane) *job { return &job{id: id, lane: l} }

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
	for l := Lane(0); l < laneCount; l++ {
		if q.lanes[l] != nil {
			t.Errorf("drained %s lane keeps its backing array", l)
		}
	}
}
