package verify

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flightrec"
)

// ev builds one event with an auto-incremented global sequence.
type evStream struct {
	seq  uint64
	time int64
	evs  []flightrec.Event
}

func (s *evStream) add(k flightrec.Kind, worker int32, task, arg, arg2 uint64) {
	s.seq++
	s.evs = append(s.evs, flightrec.Event{
		Seq: s.seq, Time: s.time, Kind: k, Worker: worker, Task: task, Arg: arg, Arg2: arg2,
	})
}

func TestCleanLifecycleNoViolations(t *testing.T) {
	var s evStream
	// Immediately-ready task: ready (submission implied) → dispatch → complete.
	s.add(flightrec.KindReady, flightrec.ExternalWorker, 1, 0, 0)
	s.add(flightrec.KindDispatch, 0, 1, 0, 0)
	s.add(flightrec.KindComplete, 0, 1, 0, 0)
	// Task with predecessors: submit → ready (from a worker) → stolen dispatch → complete.
	s.add(flightrec.KindSubmit, flightrec.ExternalWorker, 2, 4, 0)
	s.add(flightrec.KindReady, 0, 2, 4, 0)
	s.add(flightrec.KindSteal, 1, 2, 4, 0)
	s.add(flightrec.KindDispatch, 1, 2, 4, flightrec.PackDispatch(true, false, 0, 0))
	s.add(flightrec.KindPark, 0, 0, 0, 0)
	s.add(flightrec.KindComplete, 1, 2, 4, 0)
	s.add(flightrec.KindWake, 0, 0, 0, 0)
	c := New(Options{})
	c.Feed(s.evs, false)
	c.Feed(nil, false) // judgement on a batch is deferred one sweep
	if st := c.Stats(); st.Total != 0 || st.Events != 10 || st.Tracked != 0 {
		t.Fatalf("clean stream: %+v", st)
	}
}

// TestSelfDispatchElision: the chain hand-off elides the dispatch event and
// announces that on the complete event. The flag legalises ready→complete;
// the same transition without it still means a lost dispatch record.
func TestSelfDispatchElision(t *testing.T) {
	var s evStream
	s.add(flightrec.KindSubmit, flightrec.ExternalWorker, 1, 0, 0)
	s.add(flightrec.KindReady, 0, 1, 0, 0)
	s.add(flightrec.KindComplete, 0, 1, 0, flightrec.CompleteSelfDispatch)
	c := New(Options{})
	c.Feed(s.evs, false)
	c.Feed(nil, false)
	if st := c.Stats(); st.Total != 0 || st.Tracked != 0 {
		t.Fatalf("flagged elided hand-off: %+v", st)
	}
	// Without the flag, completing straight from ready is a violation.
	var s2 evStream
	s2.add(flightrec.KindSubmit, flightrec.ExternalWorker, 2, 0, 0)
	s2.add(flightrec.KindReady, 0, 2, 0, 0)
	s2.add(flightrec.KindComplete, 0, 2, 0, 0)
	c2 := New(Options{})
	c2.Feed(s2.evs, false)
	c2.Feed(nil, false)
	if st := c2.Stats(); st.DispatchNotReady != 1 {
		t.Fatalf("unflagged ready→complete not caught: %+v", st)
	}
	// The flag does not excuse completing a task that was never even ready.
	var s3 evStream
	s3.add(flightrec.KindSubmit, flightrec.ExternalWorker, 3, 0, 0)
	s3.add(flightrec.KindComplete, 0, 3, 0, flightrec.CompleteSelfDispatch)
	c3 := New(Options{})
	c3.Feed(s3.evs, false)
	c3.Feed(nil, false)
	if st := c3.Stats(); st.DispatchNotReady != 1 {
		t.Fatalf("flagged complete from submitted state not caught: %+v", st)
	}
}

func TestDispatchWithoutReadyFlagged(t *testing.T) {
	var s evStream
	s.add(flightrec.KindSubmit, flightrec.ExternalWorker, 1, 0, 0)
	s.add(flightrec.KindDispatch, 0, 1, 0, 0) // still pending: never readied
	c := New(Options{})
	c.Feed(s.evs, false)
	// The batch is held one sweep — a ready with a smaller sequence could
	// still be in flight on a ring this sweep read early. Not flagged yet…
	if st := c.Stats(); st.DispatchNotReady != 0 || st.Events != 0 {
		t.Fatalf("held batch judged early: %+v", st)
	}
	// …but the next sweep brings no such ready, and releasing the batch
	// settles it there and then.
	c.Feed(nil, false)
	if st := c.Stats(); st.DispatchNotReady != 1 {
		t.Fatalf("pending dispatch not flagged on release: %+v", st)
	}
	// Flush releases the held batch the same way.
	c2 := New(Options{})
	c2.Feed(s.evs, false)
	c2.Flush()
	if st := c2.Stats(); st.DispatchNotReady != 1 {
		t.Fatalf("flush did not judge the held dispatch: %+v", st)
	}
}

// TestGapSilencesAbsenceJudgements: the three judgements that rest on an
// event NOT being in the stream — a dispatch of a task never seen, a
// dispatch of a task seen only submitted, a complete of a task never
// dispatched — are made while the stream is whole and are off once a gap
// may have swallowed the missing event. The submitted-task case is the
// regression: its ready lost to a ring gap used to be reported two sweeps
// later as "no ready event ever recorded".
func TestGapSilencesAbsenceJudgements(t *testing.T) {
	cases := []struct {
		name  string
		kinds []flightrec.Kind
		split int // events before it are fed (and released) ahead of the rest
	}{
		{"unknown-task dispatch", []flightrec.Kind{flightrec.KindDispatch, flightrec.KindComplete}, 0},
		{"submitted-task dispatch", []flightrec.Kind{flightrec.KindSubmit, flightrec.KindDispatch, flightrec.KindComplete}, 1},
		{"never-dispatched complete", []flightrec.Kind{flightrec.KindReady, flightrec.KindComplete}, 1},
	}
	// The gap is reported either by the sweep that carries the events or by
	// the next one, while they are still held: the ready a held dispatch
	// waits for is the first thing a lapped ring loses.
	for _, tc := range cases {
		var s evStream
		for _, k := range tc.kinds {
			s.add(k, 0, 1, 0, 0)
		}
		for _, gapAt := range []int{-1, 0, 1} {
			c := New(Options{})
			c.Feed(s.evs[:tc.split], false)
			c.Feed(nil, false)
			c.Feed(s.evs[tc.split:], gapAt == 0)
			for i := 1; i <= 3; i++ {
				c.Feed(nil, gapAt == i)
			}
			c.Flush()
			st := c.Stats()
			if gapAt >= 0 && (st.Total != 0 || st.Gaps != 1) {
				t.Errorf("%s, gap at sweep %d: want silence and Gaps 1, got %+v", tc.name, gapAt, st)
			}
			if gapAt < 0 && (st.DispatchNotReady != 1 || st.Total != 1) {
				t.Errorf("%s with the stream whole: want exactly 1 dispatch-not-ready, got %+v", tc.name, st)
			}
			if st.Tracked != 0 {
				t.Errorf("%s (gap at %d): task still tracked: %+v", tc.name, gapAt, st)
			}
		}
	}
}

// TestSnapshotSkewTolerated: a ready event surfacing one batch after a
// causally-later dispatch (cross-ring collection skew) must not flag — the
// dispatch is above the earlier sweep's watermark, so it is still held when
// the ready arrives and the merge by sequence puts the ready in front.
func TestSnapshotSkewTolerated(t *testing.T) {
	c := New(Options{})
	c.Feed([]flightrec.Event{
		{Seq: 1, Kind: flightrec.KindSubmit, Worker: flightrec.ExternalWorker, Task: 1},
		{Seq: 3, Kind: flightrec.KindDispatch, Worker: 1, Task: 1},
		{Seq: 4, Kind: flightrec.KindComplete, Worker: 1, Task: 1},
	}, false)
	// The ready (seq 2, written to an early-swept ring) arrives a batch late.
	c.Feed([]flightrec.Event{
		{Seq: 2, Kind: flightrec.KindReady, Worker: 0, Task: 1},
	}, false)
	c.Flush()
	if st := c.Stats(); st.Total != 0 || st.Tracked != 0 || st.Events != 4 {
		t.Fatalf("skewed-but-ordered stream flagged: %+v", st)
	}
	// The mirror image — ready seq AFTER the dispatch seq — is the real
	// early-dispatch violation: reported once, at the dispatch, and not
	// again when the late ready or the complete arrives.
	c2 := New(Options{})
	c2.Feed([]flightrec.Event{
		{Seq: 1, Kind: flightrec.KindSubmit, Worker: flightrec.ExternalWorker, Task: 1},
		{Seq: 2, Kind: flightrec.KindDispatch, Worker: 1, Task: 1},
		{Seq: 4, Kind: flightrec.KindReady, Worker: 0, Task: 1},
		{Seq: 5, Kind: flightrec.KindComplete, Worker: 1, Task: 1},
	}, false)
	c2.Feed(nil, false)
	if st := c2.Stats(); st.DispatchNotReady != 1 || st.Total != 1 || st.Tracked != 0 {
		t.Fatalf("true early dispatch: want exactly one report, got %+v", st)
	}
	// A second ready with no dispatch between is its own cause.
	c3 := New(Options{})
	c3.Feed([]flightrec.Event{
		{Seq: 1, Kind: flightrec.KindReady, Worker: 0, Task: 1},
		{Seq: 2, Kind: flightrec.KindReady, Worker: 0, Task: 1},
	}, false)
	c3.Feed(nil, false)
	if st := c3.Stats(); st.DispatchNotReady != 1 {
		t.Fatalf("double ready not flagged: %+v", st)
	}
}

// TestFaultResolution: the runtime writes a fault and what resolves it —
// the retry that re-arms the task, or the completion of a terminal failure
// — as one paired ring write, so the two are adjacent in every stream the
// recorder can produce. Paired streams are clean however the sweeps cut
// them; a fault with nothing beside it is flagged when its pass ends.
func TestFaultResolution(t *testing.T) {
	var s evStream
	s.add(flightrec.KindReady, flightrec.ExternalWorker, 1, 0, 0)
	s.add(flightrec.KindDispatch, 0, 1, 0, 0)
	s.add(flightrec.KindFault, 0, 1, 0, flightrec.PackFault(flightrec.FaultError, 0))
	s.add(flightrec.KindRetry, 0, 1, 0, flightrec.PackRetry(1, 2))
	s.add(flightrec.KindReady, flightrec.ExternalWorker, 1, 0, 0) // the re-arm
	s.add(flightrec.KindDispatch, 1, 1, 0, 0)
	s.add(flightrec.KindFault, 1, 1, 0, flightrec.PackFault(flightrec.FaultPanic, 1))
	s.add(flightrec.KindComplete, 1, 1, 0, 0) // terminal failure
	for cut := 0; cut <= len(s.evs); cut++ {
		if cut > 0 && s.evs[cut-1].Kind == flightrec.KindFault {
			continue // no sweep boundary falls inside a paired write
		}
		c := New(Options{})
		c.Feed(s.evs[:cut], false)
		c.Feed(s.evs[cut:], false)
		c.Flush()
		if st := c.Stats(); st.Total != 0 || st.Faults != 2 || st.Retries != 1 || st.Tracked != 0 {
			t.Fatalf("paired fault stream cut at %d: %+v", cut, st)
		}
	}

	// An unpaired fault — the worker recorded the failure and nothing after
	// it — is flagged at the end of the pass that consumed it, not later.
	var got []Violation
	c := New(Options{OnViolation: func(v Violation) { got = append(got, v) }})
	c.Feed(s.evs[:3], false)
	if st := c.Stats(); st.Total != 0 {
		t.Fatalf("held fault judged early: %+v", st)
	}
	c.Feed(nil, false)
	if st := c.Stats(); st.FaultResolution != 1 || st.Total != 1 {
		t.Fatalf("unpaired fault not flagged when its pass ended: %+v", st)
	}
	c.Feed(nil, false)
	c.Flush()
	if st := c.Stats(); st.FaultResolution != 1 || len(got) != 1 || got[0].Task != 1 {
		t.Fatalf("unpaired fault reported %d times: %+v / %+v", len(got), st, got)
	}

	// A gap's loss is a prefix of a ring, so it can take the fault and leave
	// its resolution — never the reverse. The orphaned retry is not an error.
	c2 := New(Options{})
	c2.Feed(s.evs[3:], true)
	c2.Flush()
	if st := c2.Stats(); st.Total != 0 || st.Gaps != 1 {
		t.Fatalf("resolution whose fault fell in a gap flagged: %+v", st)
	}

	// A re-arm past the policy's budget is flagged on the retry event.
	var s2 evStream
	s2.add(flightrec.KindReady, flightrec.ExternalWorker, 2, 0, 0)
	s2.add(flightrec.KindDispatch, 0, 2, 0, 0)
	s2.add(flightrec.KindFault, 0, 2, 0, flightrec.PackFault(flightrec.FaultError, 2))
	s2.add(flightrec.KindRetry, 0, 2, 0, flightrec.PackRetry(3, 2))
	c3 := New(Options{})
	c3.Feed(s2.evs, false)
	c3.Flush()
	if st := c3.Stats(); st.RetryBudget != 1 || st.Total != 1 {
		t.Fatalf("over-budget retry: %+v", st)
	}
}

func TestDoubleDispatchFlagged(t *testing.T) {
	var s evStream
	s.add(flightrec.KindReady, flightrec.ExternalWorker, 1, 0, 0)
	s.add(flightrec.KindDispatch, 0, 1, 0, 0)
	s.add(flightrec.KindDispatch, 1, 1, 0, 0) // stale entry dispatches again
	var got []Violation
	c := New(Options{OnViolation: func(v Violation) { got = append(got, v) }})
	c.Feed(s.evs, false)
	c.Feed(nil, false)
	if st := c.Stats(); st.DispatchNotReady != 1 || st.Total != 1 {
		t.Fatalf("double dispatch: %+v", st)
	}
	if len(got) != 1 || got[0].Invariant != DispatchNotReady || got[0].Task != 1 || got[0].Worker != 1 {
		t.Fatalf("callback got %+v", got)
	}
}

func TestClaimGenerationRegressionFlagged(t *testing.T) {
	var s evStream
	gen3 := uint64(3) << 1
	gen2 := uint64(2) << 1
	s.add(flightrec.KindReady, flightrec.ExternalWorker, 1, gen3, 0)
	s.add(flightrec.KindDispatch, 0, 1, gen2, 0) // an entry from a previous record life
	c := New(Options{})
	c.Feed(s.evs, false)
	c.Feed(nil, false)
	if st := c.Stats(); st.ClaimRegressions != 1 {
		t.Fatalf("gen regression: %+v", st)
	}
}

func TestClassGatingFlagged(t *testing.T) {
	fastN := 2
	mk := func(worker int32, sat int) []flightrec.Event {
		var s evStream
		s.add(flightrec.KindReady, flightrec.ExternalWorker, 1, 0, 0)
		s.add(flightrec.KindDispatch, worker, 1, 1, flightrec.PackDispatch(false, true, sat, fastN))
		s.add(flightrec.KindComplete, worker, 1, 1, 0)
		return s.evs
	}
	// Slow worker (id >= fastN) takes crit work below saturation: violation.
	c := New(Options{})
	c.Feed(mk(3, 1), false)
	c.Feed(nil, false)
	if st := c.Stats(); st.ClassGating != 1 {
		t.Fatalf("ungated crit dispatch: %+v", st)
	}
	// At saturation it is the sanctioned spill.
	c = New(Options{})
	c.Feed(mk(3, fastN), false)
	c.Feed(nil, false)
	if st := c.Stats(); st.Total != 0 {
		t.Fatalf("saturated crit dispatch flagged: %+v", st)
	}
	// A fast worker takes crit work unconditionally.
	c = New(Options{})
	c.Feed(mk(0, 0), false)
	c.Feed(nil, false)
	if st := c.Stats(); st.Total != 0 {
		t.Fatalf("fast crit dispatch flagged: %+v", st)
	}
}

func TestStarvationFlagged(t *testing.T) {
	var s evStream
	s.time = 1_000_000_000
	s.add(flightrec.KindReady, flightrec.ExternalWorker, 1, 0, 0)
	c := New(Options{StarveBound: time.Second})
	c.Feed(s.evs, false)
	if st := c.Stats(); st.Starvations != 0 {
		t.Fatalf("starvation flagged too early: %+v", st)
	}
	// The stream advances past the bound with task 1 still undispatched.
	var s2 evStream
	s2.seq = s.seq
	s2.time = 3_000_000_000
	s2.add(flightrec.KindReady, flightrec.ExternalWorker, 2, 0, 0)
	c.Feed(s2.evs, false)
	c.Feed(nil, false) // the held batch carries the clock forward on consume
	st := c.Stats()
	if st.Starvations != 1 {
		t.Fatalf("starvation not flagged: %+v", st)
	}
	// Flagged once, not per feed.
	c.Feed(nil, false)
	if st := c.Stats(); st.Starvations != 1 {
		t.Fatalf("starvation re-flagged: %+v", st)
	}
	// An idle pool with a stuck ready task trips via AdvanceTime.
	c2 := New(Options{StarveBound: time.Second})
	c2.Feed(s.evs, false)
	c2.Feed(nil, false)
	c2.AdvanceTime(9_000_000_000)
	if st := c2.Stats(); st.Starvations != 1 {
		t.Fatalf("idle starvation not flagged: %+v", st)
	}
}

func TestTaskTableBounded(t *testing.T) {
	c := New(Options{MaxTracked: 64})
	var s evStream
	for i := 0; i < 1000; i++ {
		s.add(flightrec.KindSubmit, flightrec.ExternalWorker, uint64(i+1), 0, 0)
	}
	c.Feed(s.evs, false)
	c.Feed(nil, false)
	st := c.Stats()
	if st.Tracked > 64 {
		t.Fatalf("table unbounded: %+v", st)
	}
	if st.Resets == 0 {
		t.Fatalf("no resets counted: %+v", st)
	}
}

// --- The PR-5 publish-window regression, injected mechanically -------------

// The protocol modelled below is retired — readyClaim, the claim bit and
// duplicate CATS heap entries went in PR 22: a ready task holds one heap
// entry, so no entry outlives the task life it names. The model stays as a
// bug generator for the verifier, not a mirror of the runtime: it produces
// the event stream of a dispatch through an entry from a record's previous
// life, the shape DispatchNotReady must flag whatever queue lets it happen.

// pwRecord models a pooled task record under that protocol: the live claim
// word (gen<<1 | claimedBit) and the snapshot of it taken at mark-ready.
type pwRecord struct {
	id        uint64
	claim     uint64
	readyWord uint64
}

// pwEntry models one CATS heap entry: the record plus the claim word the
// insert snapshotted. snapshotReady selects which word insert reads — the
// ready-time snapshot (the PR-5 fix) or the live claim word (the pre-fix
// protocol).
type pwEntry struct {
	rec   *pwRecord
	claim uint64
}

func pwInsert(rec *pwRecord, snapshotReady bool) pwEntry {
	if snapshotReady {
		return pwEntry{rec: rec, claim: atomic.LoadUint64(&rec.readyWord)}
	}
	return pwEntry{rec: rec, claim: atomic.LoadUint64(&rec.claim)}
}

// pwPop models the dispatch claim CAS: the entry dispatches its record only
// if the record's live claim word still equals the snapshot with the
// claimed bit clear.
func pwPop(e pwEntry) bool {
	return e.claim&1 == 0 && atomic.CompareAndSwapUint64(&e.rec.claim, e.claim, e.claim|1)
}

// replayPublishWindow replays the exact interleaving of the PR-5
// publish-window race through the model, emitting the event stream the
// instrumented runtime would record, and returns it:
//
//	task T1 is marked ready; before its scheduler push runs, a concurrent
//	registration bumps it — inserting an early entry that dispatches T1
//	through completion and recycling; the record is resubmitted as T2 and
//	only then does T1's original push insert its (now stale) entry.
//
// With the fix the stale entry's claim CAS fails harmlessly; without it the
// stale entry claims the recycled record and dispatches T2 while T2 is
// still pending.
func replayPublishWindow(snapshotReady bool) []flightrec.Event {
	var s evStream
	rec := &pwRecord{id: 101}

	// T1 marked ready (claim word snapshotted inside the critical section,
	// and the Ready event recorded there too).
	atomic.StoreUint64(&rec.readyWord, rec.claim)
	s.add(flightrec.KindReady, flightrec.ExternalWorker, rec.id, rec.readyWord, 0)

	// Concurrent registration bumps T1: early heap insert, then a worker
	// pops that entry and runs T1 to completion before the original push.
	early := pwInsert(rec, snapshotReady)
	if !pwPop(early) {
		panic("early entry must win its own dispatch")
	}
	s.add(flightrec.KindDispatch, 0, rec.id, atomic.LoadUint64(&rec.claim), 0)
	s.add(flightrec.KindComplete, 0, rec.id, atomic.LoadUint64(&rec.claim), 0)
	// complete retires the record: generation bump invalidates references.
	atomic.StoreUint64(&rec.claim, (rec.claim>>1+1)<<1)

	// The record is recycled for a new submission T2, still pending on its
	// predecessors.
	rec.id = 102
	s.add(flightrec.KindSubmit, flightrec.ExternalWorker, rec.id, atomic.LoadUint64(&rec.claim), 0)

	// T1's original push finally runs: the late, stale insert.
	late := pwInsert(rec, snapshotReady)
	if pwPop(late) {
		// Pre-fix: the stale entry claims the recycled record and a worker
		// dispatches T2 before its dependences resolved.
		s.add(flightrec.KindDispatch, 1, rec.id, atomic.LoadUint64(&rec.claim), 0)
	}

	// T2's predecessors resolve; it is marked ready and dispatched through
	// its own entry (which fails its CAS if the stale entry already
	// claimed the record).
	atomic.StoreUint64(&rec.readyWord, atomic.LoadUint64(&rec.claim))
	s.add(flightrec.KindReady, flightrec.ExternalWorker, rec.id, rec.readyWord, 0)
	own := pwInsert(rec, snapshotReady)
	if pwPop(own) {
		s.add(flightrec.KindDispatch, 0, rec.id, atomic.LoadUint64(&rec.claim), 0)
		s.add(flightrec.KindComplete, 0, rec.id, atomic.LoadUint64(&rec.claim), 0)
	}
	return s.evs
}

// TestPublishWindowRegressionInjection is the mechanical regression for the
// PR-5 publish-window race: the same interleaving is replayed with the
// PR-5 fix in place (CATS entries snapshot the ready-time claim word)
// and reverted (entries snapshot the live word), and the invariant checker
// must stay silent on the former and flag the latter. This is the check
// that would have caught the race without a hand-built stress loop.
func TestPublishWindowRegressionInjection(t *testing.T) {
	fixed := New(Options{})
	fixed.Feed(replayPublishWindow(true), false)
	fixed.Feed(nil, false)
	if st := fixed.Stats(); st.Total != 0 {
		t.Fatalf("fixed protocol flagged: %+v", st)
	}

	broken := New(Options{})
	broken.Feed(replayPublishWindow(false), false)
	broken.Feed(nil, false)
	st := broken.Stats()
	if st.DispatchNotReady == 0 {
		t.Fatalf("reverted ready-time snapshot not flagged: %+v", st)
	}
}
