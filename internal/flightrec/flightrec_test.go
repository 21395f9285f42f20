package flightrec

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestPackRoundTrips(t *testing.T) {
	k, w := unpackMeta(packMeta(KindDispatch, ExternalWorker))
	if k != KindDispatch || w != ExternalWorker {
		t.Fatalf("meta round trip: got %v %d", k, w)
	}
	k, w = unpackMeta(packMeta(KindPark, 1234))
	if k != KindPark || w != 1234 {
		t.Fatalf("meta round trip: got %v %d", k, w)
	}
	stolen, crit, sat, fastN := DispatchInfo(PackDispatch(true, true, 3, 7))
	if !stolen || !crit || sat != 3 || fastN != 7 {
		t.Fatalf("dispatch info round trip: %v %v %d %d", stolen, crit, sat, fastN)
	}
	stolen, crit, sat, fastN = DispatchInfo(PackDispatch(false, false, 0, 0))
	if stolen || crit || sat != 0 || fastN != 0 {
		t.Fatalf("zero dispatch info round trip: %v %v %d %d", stolen, crit, sat, fastN)
	}
}

func TestRingCapacityRoundsUp(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{0, 64}, {1, 64}, {65, 128}, {2048, 2048}} {
		if got := int(newRing(tc.in).cap()); got != tc.want {
			t.Errorf("newRing(%d).cap() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestRingSnapshotWindowAndGap(t *testing.T) {
	r := newRing(64)
	for i := 0; i < 10; i++ {
		r.write(uint64(i+1), int64(i), KindSubmit, ExternalWorker, uint64(i), 0, 0)
	}
	evs, next, gap := r.snapshot(0, nil)
	if gap || next != 10 || len(evs) != 10 {
		t.Fatalf("first snapshot: gap=%v next=%d n=%d", gap, next, len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) || e.Task != uint64(i) {
			t.Fatalf("event %d: %+v", i, e)
		}
	}
	// No new events: empty, no gap.
	evs, next, gap = r.snapshot(next, evs[:0])
	if gap || next != 10 || len(evs) != 0 {
		t.Fatalf("idle snapshot: gap=%v next=%d n=%d", gap, next, len(evs))
	}
	// Overrun the ring so the cursor's window is lost.
	for i := 10; i < 200; i++ {
		r.write(uint64(i+1), int64(i), KindSubmit, ExternalWorker, uint64(i), 0, 0)
	}
	evs, next, gap = r.snapshot(next, evs[:0])
	if !gap {
		t.Fatal("overrun snapshot should report a gap")
	}
	// The head re-check distrusts the two positions an in-flight paired
	// write could be filling next, so a fully lapped ring yields cap-2
	// events.
	if next != 200 || len(evs) != 62 {
		t.Fatalf("overrun snapshot: next=%d n=%d (want 200, 62)", next, len(evs))
	}
	if evs[0].Seq != 200-62+1 {
		t.Fatalf("overrun snapshot starts at seq %d", evs[0].Seq)
	}
}

func TestRecorderMergeAndCursor(t *testing.T) {
	rec := New(2, Options{PerWorkerEvents: 256})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				rec.RecordWorker(w, KindDispatch, uint64(w*1000+i), 0, 0)
			}
		}(w)
	}
	for i := 0; i < 100; i++ {
		rec.RecordExternal(KindReady, uint64(9000+i), 0, 0)
	}
	wg.Wait()

	var cur Cursor
	evs, gap := rec.Collect(&cur, nil)
	if gap {
		t.Fatal("unexpected gap")
	}
	if len(evs) != 300 {
		t.Fatalf("got %d events, want 300", len(evs))
	}
	seen := map[uint64]bool{}
	for i, e := range evs {
		if i > 0 && evs[i-1].Seq >= e.Seq {
			t.Fatalf("not seq-ordered at %d: %d then %d", i, evs[i-1].Seq, e.Seq)
		}
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
	// Incremental collect sees nothing new, then exactly the new events.
	evs, gap = rec.Collect(&cur, evs[:0])
	if gap || len(evs) != 0 {
		t.Fatalf("idle collect: gap=%v n=%d", gap, len(evs))
	}
	rec.RecordWorker(1, KindComplete, 42, 0, 0)
	evs, _ = rec.Collect(&cur, evs[:0])
	if len(evs) != 1 || evs[0].Task != 42 || evs[0].Kind != KindComplete {
		t.Fatalf("incremental collect: %+v", evs)
	}
}

func TestSnapshotNeverBlocksWriter(t *testing.T) {
	rec := New(1, Options{PerWorkerEvents: 64})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20000; i++ {
			rec.RecordWorker(0, KindDispatch, uint64(i), 0, 0)
		}
	}()
	// Concurrent snapshots while the writer laps the ring repeatedly: no
	// torn events may surface (every surfaced event must be one that was
	// written, with its fields intact).
	for i := 0; i < 200; i++ {
		for _, e := range rec.Snapshot() {
			if e.Kind != KindDispatch || e.Worker != 0 {
				t.Fatalf("torn event surfaced: %+v", e)
			}
		}
	}
	<-done
}

// TestTailFiltersByTime: Time rises with Seq only within a ring. A lane
// event's block-reserved sequence sorts it before older events of other
// rings, so a Tail that cut the merged timeline at its first recent event
// would return the old worker event behind the recent lane one.
func TestTailFiltersByTime(t *testing.T) {
	rec := New(1, Options{PerWorkerEvents: 64})
	rec.RecordLane(KindSubmit, 1, 0, 0)        // reserves the lane's block
	rec.RecordWorker(0, KindDispatch, 2, 0, 0) // sequenced after the block
	time.Sleep(200 * time.Millisecond)
	rec.RecordLane(KindSubmit, 3, 0, 0) // recent, but inside the old block
	tail := rec.Tail(100 * time.Millisecond)
	if len(tail) != 1 || tail[0].Task != 3 {
		t.Fatalf("tail = %+v, want just task 3", tail)
	}
	if all := rec.Tail(time.Hour); len(all) != 3 {
		t.Fatalf("wide tail = %d events, want 3", len(all))
	}
}

func TestRecordPathAllocationFree(t *testing.T) {
	rec := New(1, Options{PerWorkerEvents: 128})
	if a := testing.AllocsPerRun(1000, func() {
		rec.RecordWorker(0, KindDispatch, 7, 1, 2)
	}); a != 0 {
		t.Fatalf("RecordWorker allocates %.1f/op", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		rec.RecordExternal(KindReady, 7, 1, 2)
	}); a != 0 {
		t.Fatalf("RecordExternal allocates %.1f/op", a)
	}
}

// TestRecorderKeepsTime: New starts no goroutine, every event is stamped
// when it is recorded (two events 2 ms apart carry Times 2 ms apart), and
// Close, a no-op, leaves recording and the clock working.
func TestRecorderKeepsTime(t *testing.T) {
	before := runtime.NumGoroutine()
	rec := New(1, Options{})
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("New started %d goroutines", after-before)
	}
	rec.RecordWorker(0, KindPark, 0, 0, 0)
	time.Sleep(2 * time.Millisecond)
	rec.RecordWorker(0, KindWake, 0, 0, 0)
	rec.Close()
	time.Sleep(2 * time.Millisecond)
	rec.RecordExternal(KindReady, 1, 0, 0)
	evs := rec.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("%d events, want 3", len(evs))
	}
	for i := 1; i < 3; i++ {
		if gap := time.Duration(evs[i].Time - evs[i-1].Time); gap < 2*time.Millisecond {
			t.Errorf("events %d and %d recorded ≥ 2ms apart are stamped %v apart", i-1, i, gap)
		}
	}
	if now := rec.Now(); now < evs[2].Time {
		t.Errorf("Now %d reads before the last event's Time %d", now, evs[2].Time)
	}
}
