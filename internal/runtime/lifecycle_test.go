package runtime

import (
	"context"
	"errors"
	"fmt"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// traceLen is the length of the registration log.
func traceLen(r *Runtime) int {
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	return len(r.trace)
}

// submitRounds drives rounds of mixed-dependence submissions, each followed
// by a Wait — the long-lived-service usage pattern.
func submitRounds(t *testing.T, r *Runtime, rounds, perRound int) {
	t.Helper()
	for round := 0; round < rounds; round++ {
		for i := 0; i < perRound; i++ {
			key := i % 8
			var deps []Dep
			switch i % 3 {
			case 0:
				deps = []Dep{In(key)}
			case 1:
				deps = []Dep{Out(key)}
			default:
				deps = []Dep{InOut(key), In((key + 1) % 8)}
			}
			if _, err := r.SubmitCtx(context.Background(), "t", func(context.Context) error { return nil }, deps...); err != nil {
				t.Fatal(err)
			}
		}
		r.Wait()
	}
}

// Without WithTraceRetention the registration log must stay empty however
// long the runtime lives: nothing grows with the tasks submitted.
func TestShardLogsStayEmptyWithoutRetention(t *testing.T) {
	eachScheduler(t, func(t *testing.T, kind SchedulerKind) {
		r := New(WithWorkers(4), WithScheduler(kind))
		defer r.Shutdown()
		submitRounds(t, r, 5, 300)
		if n := traceLen(r); n != 0 {
			t.Fatalf("the registration log holds %d tasks without trace retention", n)
		}
		if _, err := r.Graph(); !errors.Is(err, ErrNoTrace) {
			t.Fatalf("Graph without retention = %v, want ErrNoTrace", err)
		}
	})
}

// With WithTraceRetention the log keeps every registration and Graph
// exports it.
func TestTraceRetentionKeepsFullLog(t *testing.T) {
	r := New(WithWorkers(4), WithTraceRetention())
	defer r.Shutdown()
	const rounds, perRound = 3, 200
	submitRounds(t, r, rounds, perRound)
	if n := traceLen(r); n != rounds*perRound {
		t.Fatalf("retained log holds %d tasks, want %d", n, rounds*perRound)
	}
	g, err := r.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != rounds*perRound {
		t.Fatalf("graph has %d nodes, want %d", g.Len(), rounds*perRound)
	}
}

// complete must drop everything a finished task holds and retire its
// record into the freelist, with trace retention as without: the records
// the freelist ring hands back hold no body, context, successor or
// dependence, and their generation has moved on.
func TestCompleteReleasesTaskReferences(t *testing.T) {
	for _, opts := range [][]Option{{WithWorkers(2)}, {WithWorkers(2), WithTraceRetention()}} {
		r := New(opts...)
		// One batch, so b cannot reuse a's record.
		if _, err := r.SubmitBatchCtx(context.Background(), []TaskSpec{
			{Name: "a", Body: func(context.Context) error { return nil }, Deps: []Dep{Out("k")}},
			{Name: "b", Body: func(context.Context) error { return nil }, Deps: []Dep{In("k")}},
		}); err != nil {
			t.Fatal(err)
		}
		r.Wait()
		seen := 0
		for tk := r.free.get(); tk != nil; tk = r.free.get() {
			seen++
			tk.mu.Lock()
			if tk.run != nil || tk.arg != nil {
				t.Errorf("a retired record keeps its body")
			}
			if tk.ctx != nil {
				t.Errorf("a retired record keeps its context")
			}
			if tk.nsuccs != 0 || len(tk.succsOvf) != 0 || tk.succsInl != [inlineArity]*task{} {
				t.Errorf("a retired record keeps successors")
			}
			if tk.ndeps != 0 || tk.depsInl != [inlineArity]Dep{} || tk.name != "" {
				t.Errorf("a retired record keeps its name or dependences")
			}
			if atomic.LoadUint64(&tk.claim)>>1 == 0 {
				t.Errorf("a retired record's generation did not advance")
			}
			tk.mu.Unlock()
		}
		r.Shutdown()
		if seen != 2 {
			t.Fatalf("options %d: the freelist ring holds %d records, want 2", len(opts), seen)
		}
	}
}

// A task whose keys hold a dead reference to a record and a live reference
// to the record's next life must wait for that next life. Key "a" keeps a
// finished writer's record, which the freelist hands to the writer of key
// "b"; a reader of both must not mistake the live reference for a
// duplicate of the dead one and run while "b"'s writer is still running.
func TestLiveRefBesideDeadRefToSameRecord(t *testing.T) {
	r := New(WithWorkers(1))
	defer r.Shutdown()
	if _, err := r.SubmitCtx(context.Background(), "x", func(context.Context) error { return nil }, Out("a")); err != nil {
		t.Fatal(err)
	}
	r.Wait()
	started, gate := make(chan struct{}), make(chan struct{})
	defer close(gate)
	if _, err := r.SubmitCtx(context.Background(), "y", func(context.Context) error { close(started); <-gate; return nil }, Out("b")); err != nil {
		t.Fatal(err)
	}
	<-started // y holds the one worker
	s := &r.tracker
	s.mu.Lock()
	same := s.keys["a"].writer.t == s.keys["b"].writer.t
	s.mu.Unlock()
	if !same {
		t.Fatal("precondition: y did not reuse x's record")
	}
	if _, err := r.SubmitCtx(context.Background(), "z", func(context.Context) error { return nil }, In("a"), In("b")); err != nil {
		t.Fatal(err)
	}
	if n := r.sched.queued(); n != 0 {
		t.Fatalf("z is queued (%d) while its predecessor y is still running", n)
	}
}

// A reference to a retired record is dead whoever holds the record now
// (taskRef.dead, the generation check). x1 and x2 finish and retire their
// records in that order; a batch takes them back in that order, so B gets
// x1's record and A x2's. B reads "a", whose writer reference is x2's past
// life; A reads "b", which B writes. Were that reference taken for A, B
// would wait on A and A on B, and neither would run: the bounded wait fails
// on it, and the pool is not shut down then, since Shutdown would wait too.
func TestRecycledRecordNeverWaitsOnItsPastLife(t *testing.T) {
	r := New(WithWorkers(1))
	noop := func(context.Context) error { return nil }
	for _, key := range []string{"p", "a"} {
		if _, err := r.SubmitCtx(context.Background(), "x", noop, Out(key)); err != nil {
			t.Fatal(err)
		}
	}
	r.Wait()
	s := &r.tracker
	s.mu.Lock()
	past := s.keys["a"].writer.t
	s.mu.Unlock()
	if _, err := r.SubmitBatchCtx(context.Background(), []TaskSpec{
		{Name: "B", Body: noop, Deps: []Dep{In("a"), Out("b")}},
		{Name: "A", Body: noop, Deps: []Dep{In("b")}},
	}); err != nil {
		t.Fatal(err)
	}
	boundedWait(t, r, 2*time.Second, "a batch on recycled records")
	s.mu.Lock()
	reused := s.keys["b"].readers[0].t == past
	s.mu.Unlock()
	if !reused {
		t.Fatal("precondition: A did not reuse x2's record")
	}
	r.Shutdown()
}

// A writer truncating a key's reader list must nil the slots: readers[:0]
// alone keeps the old reader tasks reachable through the backing array.
func TestReadersTailSlotsClearedOnWriterTruncate(t *testing.T) {
	r := New(WithWorkers(2))
	defer r.Shutdown()
	const readers = 6
	for i := 0; i < readers; i++ {
		r.SubmitCtx(context.Background(), "r", func(context.Context) error { return nil }, In("k"))
	}
	r.SubmitCtx(context.Background(), "w", func(context.Context) error { return nil }, Out("k"))
	r.Wait()
	s := &r.tracker
	s.mu.Lock()
	defer s.mu.Unlock()
	tail := s.keys["k"].readers
	if len(tail) != 0 {
		t.Fatalf("reader list length %d after writer, want 0", len(tail))
	}
	full := tail[:cap(tail)]
	for i, tk := range full {
		if tk.t != nil {
			t.Fatalf("reader list backing slot %d still pins reader task %d", i, tk.t.id)
		}
	}
	if cap(tail) < readers {
		t.Fatalf("test did not exercise the backing array (cap %d < %d readers)", cap(tail), readers)
	}
}

// A key that is only ever read holds its live readers, not its history: a
// full reader list drops its dead readers in place before it grows. One
// key never passes the sweep floor, so no sweep helps here; without the
// in-place drop its list held every one of the 100 000 readers.
func TestReadOnlyKeyListBounded(t *testing.T) {
	r := New(WithWorkers(2))
	defer r.Shutdown()
	const readers = 100_000
	for i := 0; i < readers; i++ {
		if _, err := r.SubmitCtx(context.Background(), "r", func(context.Context) error { return nil }, In("k")); err != nil {
			t.Fatal(err)
		}
		r.Wait()
	}
	s := &r.tracker
	s.mu.Lock()
	defer s.mu.Unlock()
	if rs := s.keys["k"].readers; cap(rs) > maxSpareCap {
		t.Fatalf("a key read by %d tasks, one at a time, holds a list of len %d cap %d, bound %d",
			readers, len(rs), cap(rs), maxSpareCap)
	}
}

// End-to-end collectability: the payloads captured by task bodies must be
// garbage once the tasks complete — nothing in the scheduler queues, tracker
// state, or task structs may pin them (default, no trace retention).
func TestTaskPayloadsCollectableAfterComplete(t *testing.T) {
	eachScheduler(t, func(t *testing.T, kind SchedulerKind) {
		const n = 100
		r := New(WithWorkers(2), WithScheduler(kind))
		defer r.Shutdown()
		var finalized int32
		submitWithPayloads(t, r, n, &finalized)
		r.Wait()
		deadline := time.Now().Add(20 * time.Second)
		for atomic.LoadInt32(&finalized) < n && time.Now().Before(deadline) {
			stdruntime.GC()
			time.Sleep(5 * time.Millisecond)
		}
		if got := atomic.LoadInt32(&finalized); got != n {
			t.Fatalf("%d/%d task payloads still uncollectable after completion", n-got, n)
		}
	})
}

// submitWithPayloads lives in its own frame so no payload stays reachable
// from the test function's stack.
func submitWithPayloads(t *testing.T, r *Runtime, n int, finalized *int32) {
	t.Helper()
	for i := 0; i < n; i++ {
		p := new([1 << 12]byte)
		stdruntime.SetFinalizer(p, func(*[1 << 12]byte) { atomic.AddInt32(finalized, 1) })
		if _, err := r.SubmitCtx(context.Background(), fmt.Sprintf("t%d", i), func(context.Context) error { p[0]++; return nil }); err != nil {
			t.Fatal(err)
		}
	}
}

// A Run task's argument is dropped with its body: once Wait returns,
// nothing of the runtime pins an Arg, whichever path its task took — a
// plain run, a retry, a deadline-bounded attempt or a parked wait.
func TestRunArgCollectableAfterWait(t *testing.T) {
	eachScheduler(t, func(t *testing.T, kind SchedulerKind) {
		const n = 100
		r := New(WithWorkers(2), WithScheduler(kind))
		defer r.Shutdown()
		var finalized int32
		submitWithArgs(t, r, n, &finalized)
		r.Wait()
		deadline := time.Now().Add(20 * time.Second)
		for atomic.LoadInt32(&finalized) < n && time.Now().Before(deadline) {
			stdruntime.GC()
			time.Sleep(5 * time.Millisecond)
		}
		if got := atomic.LoadInt32(&finalized); got != n {
			t.Fatalf("%d/%d task arguments still uncollectable after Wait", n-got, n)
		}
	})
}

// argPayload is a Run argument with a finalizer. mode picks the path its
// task takes: 0 plain, 1 retried, 2 deadline-bounded, 3 parked. buf gives
// it a size: a finalizer on a tiny allocation need never run.
type argPayload struct {
	buf   [1 << 12]byte
	mode  int
	calls int
}

func payloadRun(ctx context.Context, arg any) error {
	p := arg.(*argPayload)
	p.calls++
	switch {
	case p.mode == 1 && p.calls == 1:
		return errors.New("first attempt fails")
	case p.mode == 3:
		CompleteAfter(ctx, time.Millisecond)
	}
	return nil
}

// submitWithArgs lives in its own frame so no argument stays reachable
// from the test function's stack.
func submitWithArgs(t *testing.T, r *Runtime, n int, finalized *int32) {
	t.Helper()
	for i := 0; i < n; i++ {
		p := &argPayload{mode: i % 4}
		stdruntime.SetFinalizer(p, func(*argPayload) { atomic.AddInt32(finalized, 1) })
		sp := TaskSpec{Name: "arg", Run: payloadRun, Arg: p}
		switch p.mode {
		case 1:
			sp.Retry = RetryPolicy{Max: 1}
		case 2:
			sp.Deadline = time.Minute
		}
		if _, err := r.SubmitBatchCtx(context.Background(), []TaskSpec{sp}); err != nil {
			t.Fatal(err)
		}
	}
}

// trackerEntries counts the tracker's key records — what sweepFloor and
// sweepAt count: one record per key, holding the key's last writer and its
// reader list (two map entries before the maps were merged).
func trackerEntries(r *Runtime) int {
	r.tracker.mu.Lock()
	defer r.tracker.mu.Unlock()
	return len(r.tracker.keys)
}

// submitUniqueKeyJobs submits jobs four-task diamonds, each over four keys
// no other job uses (addresses of the job's own cells, as the service
// layer mints them), with a Wait every round jobs. It returns the largest
// tracker size seen at a round boundary.
func submitUniqueKeyJobs(t *testing.T, r *Runtime, jobs, round int) (peak int) {
	t.Helper()
	noop := func(context.Context) error { return nil }
	for j := 0; j < jobs; j++ {
		k := new([4]struct{ _ byte })
		specs := []TaskSpec{
			{Body: noop, Deps: []Dep{Out(&k[0])}},
			{Body: noop, Deps: []Dep{In(&k[0]), Out(&k[1])}},
			{Body: noop, Deps: []Dep{In(&k[0]), Out(&k[2])}},
			{Body: noop, Deps: []Dep{In(&k[1]), In(&k[2]), Out(&k[3])}},
		}
		if _, err := r.SubmitBatchCtx(context.Background(), specs); err != nil {
			t.Fatal(err)
		}
		if (j+1)%round == 0 {
			r.Wait()
			peak = max(peak, trackerEntries(r))
		}
	}
	return peak
}

// A long-lived runtime fed keys that are unique per job — the service
// layer's shape — must hold tracker state for the jobs in flight, not for
// every job it ever ran: the tracker scavenges records whose tasks are all
// retired. Without the sweep this grows by four records per job (200 k
// here) and by everything those keys pin.
func TestTrackerForgetsFinishedKeys(t *testing.T) {
	const jobs, round, keysPerJob = 50_000, 1_000, 4
	r := New(WithWorkers(2))
	defer r.Shutdown()
	peak := submitUniqueKeyJobs(t, r, jobs, round)
	// Each key holds one record; the tracker sweeps once it passes twice what
	// the previous sweep left plus the floor, and a sweep leaves nothing
	// but the jobs in flight. The same expression over half the count the
	// two-map tracker gave it (a written key held an entry in each map, 32
	// + 40 bytes of slot against a record's 56, and the floor was 1024
	// entries): 13 024 records, 729 kB of slots where 26 048 entries made
	// 937 kB. The spare lists below are what the difference may be spent
	// on, 155 kB at their bound.
	inFlight := keysPerJob * round
	if bound := 3*inFlight + sweepFloor; peak > bound {
		t.Fatalf("tracker holds %d records after %d jobs of unique keys, bound %d (%d keys in flight at most)",
			peak, jobs, bound, keysPerJob*round)
	}
	s := &r.tracker
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.spare) > maxSpare {
		t.Errorf("the tracker shelves %d reader lists, bound %d", len(s.spare), maxSpare)
	}
	for _, l := range s.spare {
		if len(l) != 0 || cap(l) == 0 || cap(l) > maxSpareCap {
			t.Errorf("the tracker shelves a list of len %d cap %d, want empty and 1..%d slots", len(l), cap(l), maxSpareCap)
			break
		}
	}
}

// WithTraceRetention keeps a log beside the tracker, not the tracker's
// records: retired tasks' generations advance as without it, so the sweep
// forgets finished keys under retention too, and the log alone holds the
// history.
func TestTrackerForgetsUnderRetention(t *testing.T) {
	const jobs, round, keysPerJob = 2_000, 500, 4
	// The bound is below the 8 000 records a tracker that forgot nothing
	// would hold.
	r := New(WithWorkers(2), WithTraceRetention())
	defer r.Shutdown()
	peak := submitUniqueKeyJobs(t, r, jobs, round)
	if bound := 3*keysPerJob*round + sweepFloor; peak > bound {
		t.Fatalf("tracker holds %d records under retention after %d jobs, bound %d", peak, jobs, bound)
	}
	if got, want := traceLen(r), keysPerJob*jobs; got != want {
		t.Fatalf("the registration log holds %d tasks, want all %d", got, want)
	}
}

// versionOp is one dependence of a task as the version oracle sees it (the
// benchmark's, benchmark/rt.go): the key is the address of a counter that
// must hold expect — computed from program order at submission — and that
// a writer then increments, without atomics. The tracker's ordering is
// what makes that safe: a dependence it drops is a wrong version, and a
// data race under -race.
type versionOp struct {
	c      *uint64
	expect uint64
	write  bool
}

func versionBody(bad *atomic.Int64, ops ...versionOp) Body {
	return func(context.Context) error {
		for _, op := range ops {
			v := *op.c
			if v != op.expect {
				bad.Add(1)
			}
			if op.write {
				*op.c = v + 1
			}
		}
		return nil
	}
}

// A reader list the sweep shelves belonged to a key whose tasks are all
// retired; the key that takes it must start from an empty list — none of
// the old key's readers among its own, in the length or in the slots
// behind it — while the keys that stay live across the sweep keep every
// reader they had. Diamonds over fresh keys force the sweeps; a held key
// collects one live reader per job behind a gated writer (its list is
// compacted by every sweep and must lose nobody), and four long-lived
// keys are read by every job and rewritten by every eighth.
func TestRecycledReaderListCarriesNoStaleReader(t *testing.T) {
	const jobs, longKeys = 600, 4
	r := New(WithWorkers(4))
	defer r.Shutdown()
	s := &r.tracker
	var bad atomic.Int64
	var hold uint64
	var long, longWrites [longKeys]uint64
	gate := make(chan struct{})
	openGate := sync.OnceFunc(func() { close(gate) })
	defer openGate() // before Shutdown, which waits for the gated writer
	if _, err := r.SubmitCtx(context.Background(), "gate", func(context.Context) error { <-gate; hold++; return nil }, Out(&hold)); err != nil {
		t.Fatal(err)
	}
	sweeps, recycled, records := 0, 0, 0
	// audit checks the tracker after job j, whose keys are k, under the
	// tracker lock; spareBefore is the shelf's size before the job.
	audit := func(j int, k *[7]uint64, spareBefore int) error {
		s.mu.Lock()
		defer s.mu.Unlock()
		if len(s.keys) < records {
			sweeps++
		}
		records = len(s.keys)
		recycled += max(0, spareBefore-len(s.spare))
		// A sweep mid-job may already have dropped readers that finished,
		// so the job's own reader counts are upper bounds.
		for m, want := range [7]int{6, 1, 1, 1, 1, 1, 1} {
			if rs := s.keys[&k[m]].readers; len(rs) > want {
				return fmt.Errorf("fresh key %d holds %d readers, the job gave it %d", m, len(rs), want)
			}
		}
		if got := len(s.keys[&hold].readers); got != j+1 {
			return fmt.Errorf("the held key keeps %d of its %d live readers", got, j+1)
		}
		for key, rec := range s.keys {
			for _, rd := range rec.readers[len(rec.readers):cap(rec.readers)] {
				if rd.t != nil {
					return fmt.Errorf("key %p keeps a reference past its %d readers", key, len(rec.readers))
				}
			}
		}
		for _, list := range s.spare {
			for _, rd := range list[:cap(list)] {
				if len(list) != 0 || rd.t != nil {
					return fmt.Errorf("a shelved reader list still holds a reader (len %d)", len(list))
				}
			}
		}
		for _, list := range s.spare[len(s.spare):cap(s.spare)] {
			if list != nil {
				return errors.New("the shelf still points at a list it handed out")
			}
		}
		return nil
	}
	for j := 0; j < jobs; j++ {
		k := new([7]uint64)
		l := j % longKeys
		rewrite := j%8 == 7
		specs := []TaskSpec{{
			Body: versionBody(&bad, versionOp{&k[0], 0, true}, versionOp{&long[l], longWrites[l], false}),
			Deps: []Dep{Out(&k[0]), In(&long[l])},
		}}
		var sinkOps []versionOp
		var sinkDeps []Dep
		for m := 1; m <= 6; m++ {
			specs = append(specs, TaskSpec{
				Body: versionBody(&bad, versionOp{&k[0], 1, false}, versionOp{&k[m], 0, true}),
				Deps: []Dep{In(&k[0]), Out(&k[m])},
			})
			sinkOps = append(sinkOps, versionOp{&k[m], 1, false})
			sinkDeps = append(sinkDeps, In(&k[m]))
		}
		if rewrite {
			sinkOps = append(sinkOps, versionOp{&long[l], longWrites[l], true})
			sinkDeps = append(sinkDeps, InOut(&long[l]))
			longWrites[l]++
		}
		specs = append(specs,
			TaskSpec{Body: versionBody(&bad, sinkOps...), Deps: sinkDeps},
			TaskSpec{Body: versionBody(&bad, versionOp{&hold, 1, false}), Deps: []Dep{In(&hold)}})
		s.mu.Lock()
		spareBefore := len(s.spare)
		s.mu.Unlock()
		if _, err := r.SubmitBatchCtx(context.Background(), specs); err != nil {
			t.Fatal(err)
		}
		if err := audit(j, k, spareBefore); err != nil {
			t.Fatalf("job %d: %v", j, err)
		}
		if j%16 == 15 {
			// Let the diamonds retire, so that the next sweep deletes them.
			for r.Stats().Executed < uint64(8*(j+1)) {
				stdruntime.Gosched()
			}
		}
	}
	openGate()
	if _, err := r.SubmitCtx(context.Background(), "after", versionBody(&bad, versionOp{&hold, 1, true}), InOut(&hold)); err != nil {
		t.Fatal(err)
	}
	r.Wait()
	if n := bad.Load(); n != 0 {
		t.Errorf("%d dependences found the wrong version", n)
	}
	if hold != 2 {
		t.Errorf("held key ends at version %d, want 2", hold)
	}
	for l, want := range longWrites {
		if long[l] != want {
			t.Errorf("long-lived key %d ends at version %d, want %d", l, long[l], want)
		}
	}
	if sweeps < 3 || recycled == 0 {
		t.Fatalf("%d sweeps, %d shelved lists handed out: the test did not exercise recycling", sweeps, recycled)
	}
}

// Equal keys name one datum whatever their type: an InOut chain over a
// pointer, a struct, a channel or a string key runs its tasks one at a
// time, in submission order. The chains are submitted interleaved, and the
// counters are unsynchronised, so a broken chain is a wrong count and a
// data race under -race.
func TestShardIndexPointerAndFallbackKeys(t *testing.T) {
	type pair struct {
		job  uint64
		name string
	}
	r := New(WithWorkers(4))
	defer r.Shutdown()
	cell, ch := new(struct{ _ byte }), make(chan int)
	key := func(i int) any {
		switch i {
		case 0:
			return cell
		case 1:
			return pair{7, "x"}
		case 2:
			return ch
		}
		return string([]byte("k")) // a fresh string each time
	}
	const chain = 200
	var counts [4]int
	var bad atomic.Int64
	for n := 0; n < chain; n++ {
		for i := range counts {
			if _, err := r.SubmitCtx(context.Background(), "link", func(context.Context) error {
				if counts[i] != n {
					bad.Add(1)
				}
				counts[i]++
				return nil
			}, InOut(key(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	r.Wait()
	if counts != [4]int{chain, chain, chain, chain} || bad.Load() != 0 {
		t.Fatalf("chains ran %v links with %d out of order, want %d each in order", counts, bad.Load(), chain)
	}
}
