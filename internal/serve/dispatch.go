package serve

import (
	"context"
	"errors"
	"time"
	"unsafe"

	"repro/internal/flightrec"
	"repro/internal/runtime"
)

// dispatchLoop is the single goroutine that moves admitted jobs from
// tenant queues into the shared pool. Flow control and fairness both
// live here:
//
//   - Lanes strictly outrank each other: every control-lane job anywhere
//     dispatches before any data-lane job, and data before telemetry.
//   - A job is launched only while fewer than Config.MaxRunningJobs jobs
//     of its own and the more privileged lanes are in the pool; the rest
//     wait in their tenant queues, so the queues (and with them the
//     control-lane reserve and the fairness rotation) see real depth
//     instead of draining instantly into an unbounded pool. The cap counts
//     upwards only: telemetry jobs, which the pool serves last, never hold
//     a data or control job back, and the pool holds at most
//     laneCount × MaxRunningJobs jobs.
//   - Within a lane, tenants are served round-robin by a rotation cursor
//     that advances past each tenant served, so a tenant with a thousand
//     queued jobs gets exactly one dispatch per rotation — a greedy
//     tenant saturates its own queue, not its neighbours' latency.
//   - The pool keeps that order: a job's tasks carry poolHint(lane, n),
//     n counting launches, so the pool works on the oldest launched job
//     of the highest lane first and the runtime's own bottom-level +1
//     only orders tasks inside a job.
//
// The loop exits after a drain: admission is closed, every queue is
// empty, and the last running job has finished.
func (s *Server) dispatchLoop() {
	var launched uint64
	s.mu.Lock()
	for {
		var j *job
		for j = s.popLocked(); j == nil; j = s.popLocked() {
			if s.draining && s.pendingJobs == 0 && s.runningJobs() == 0 {
				close(s.idle)
				s.mu.Unlock()
				return
			}
			s.cond.Wait()
		}
		// The queue entry is gone, and with it the job's claim on its
		// request: launch lowers it, a job cancelled while queued (already
		// finished; the entry is just reaped) never needed it.
		sb := j.sub
		j.sub = nil
		if j.state.terminal() {
			s.putSubmit(sb)
			continue
		}
		j.state = jobRunning
		s.running[j.lane]++
		s.mu.Unlock()
		s.launch(j, sb, poolHint(j.lane, launched))
		launched++
		s.mu.Lock()
	}
}

// runningJobs is the number of launched, non-terminal jobs. Caller holds
// s.mu.
func (s *Server) runningJobs() int {
	n := 0
	for _, r := range s.running {
		n += r
	}
	return n
}

// popLocked removes the next launchable job per the lane/rotation policy,
// or returns nil: nothing is queued, or the most privileged lane with a
// queued job is capped. A lane is capped when the jobs running in it and
// in the lanes above number MaxRunningJobs; that count only grows down the
// lanes, so every lane below a capped one is capped too. Caller holds s.mu.
func (s *Server) popLocked() *job {
	if s.pendingJobs == 0 {
		return nil
	}
	n, running := len(s.order), 0
	for lane := Lane(0); lane < laneCount; lane++ {
		running += s.running[lane]
		if running >= s.cfg.MaxRunningJobs {
			return nil
		}
		start := s.rr
		for k := 0; k < n; k++ {
			tn := s.order[(start+k)%n]
			if j := tn.q.popLane(lane); j != nil {
				s.rr = (start + k + 1) % n
				s.pendingJobs--
				return j
			}
		}
	}
	return nil
}

// keyCell is one job-local dependence key. Its address is the key the
// runtime's tracker sees: a pointer in an interface costs no allocation,
// and no two live jobs can share one, so jobs are isolated from each other
// in the tracker by construction. The tracker's map entry for a key keeps
// the job record (or the job's cell slab) reachable, so the address cannot
// be reused while anything still names it. A cell has a size so that cells
// have distinct addresses.
type keyCell struct{ _ byte }

// jobCells is how many key cells a job record holds inline: enough for the
// distinct keys of a small graph, and they round the record up to the next
// size class.
const jobCells = 24

// internKeep bounds the intern table the dispatcher reuses across
// launches; a job with more distinct keys leaves a fresh one behind.
const internKeep = 256

// taskArg is one lowered task's argument: what runTask needs to run its
// op. lower makes one slab of them per job and points each task's Arg at
// its entry, so a job's tasks cost one object, not a closure each.
type taskArg struct {
	j      *job
	op     Op
	amount int64
	// faulty is the chaos injector's wrapper of call (nil without
	// Config.Chaos), made once per task because its transient/sticky
	// schedule is per wrapper.
	faulty func(context.Context) error
}

// call runs the task's op.
func (a *taskArg) call(ctx context.Context) error { return a.op(ctx, a.amount) }

// runTask is every lowered task's Run. It counts the attempt first,
// outermost, so JobStatus.Attempts sees every execution, injected faults
// included, then runs the op, through the chaos wrapper when there is one.
func runTask(ctx context.Context, arg any) error {
	a := arg.(*taskArg)
	a.j.attempts.Add(1)
	if a.faulty != nil {
		return a.faulty(ctx)
	}
	return a.call(ctx)
}

// lower turns a validated request into the runtime's task specs for j:
// the dispatcher's spec and dependence slabs (sub-sliced per task), key
// cells of the job's own (job-local names interned to cell addresses; the
// record's inline cells first), one argument slab and one completion hook
// for the graph. It runs on the dispatcher goroutine only, for admitted
// jobs only.
func (s *Server) lower(j *job, req *wireGraph, hint int) []runtime.TaskSpec {
	ndeps := 0
	for i := range req.Tasks {
		ndeps += len(req.Tasks[i].Deps)
	}
	// The slabs grow in place, zeroed (launch cleared what they held).
	specs := append(s.specs[:0], make([]runtime.TaskSpec, len(req.Tasks))...)
	deps := append(s.deps[:0], make([]runtime.Dep, ndeps)...)[:0]
	args := make([]taskArg, len(req.Tasks))
	cells := j.cells[:0] // never regrown: addresses are keys

	// One hook closure for the whole graph: every task accounts itself
	// exactly once (executed or skipped), and the last one finishes the
	// job. The hook runs on pool workers and must stay non-blocking —
	// jobFinished's critical section is short and never waits on the pool.
	// Under fail_fast the first failure also cancels the job's context, so
	// tasks not yet dispatched skip instead of running.
	hook := func(err error) {
		if err != nil {
			j.noteErr(err)
			if j.failFast {
				j.cancel()
			}
		}
		if j.remaining.Add(-1) == 0 {
			s.jobFinished(j)
		}
	}
	for i := range req.Tasks {
		tr := &req.Tasks[i]
		first := len(deps)
		for _, d := range tr.Deps {
			// The name is the request's own bytes, unchanged until its
			// submitBuf is decoded into again, which is after launch; the
			// table is emptied before lower returns.
			name := unsafe.String(unsafe.SliceData(d.Key), len(d.Key))
			cell := s.intern[name]
			if cell == nil {
				if len(cells) == cap(cells) {
					cells = make([]keyCell, 0, ndeps) // room for every key left
				}
				cells = append(cells, keyCell{})
				cell = &cells[len(cells)-1]
				s.intern[name] = cell
			}
			mode, _ := parseMode(d.Mode)
			deps = append(deps, runtime.Dep{Key: cell, Mode: mode})
		}
		a := &args[i]
		*a = taskArg{j: j, op: s.ops[string(tr.Op)], amount: tr.Amount}
		if s.inj != nil {
			a.faulty = s.inj.Wrap(j.num<<16|uint64(i), a.call)
		}
		spec := &specs[i]
		spec.Name = string(tr.Name)
		spec.Cost = tr.Cost
		spec.Priority = hint
		spec.Run, spec.Arg = runTask, a
		spec.Deps = deps[first:len(deps):len(deps)]
		spec.OnDone = hook
		if r := tr.Retry; r != nil {
			spec.Retry = runtime.RetryPolicy{
				Max:        r.Max,
				Backoff:    time.Duration(r.BackoffMS) * time.Millisecond,
				MaxBackoff: time.Duration(r.MaxBackoffMS) * time.Millisecond,
			}
		}
		spec.Deadline = time.Duration(tr.DeadlineMS) * time.Millisecond
	}
	if len(s.intern) > internKeep {
		s.intern = make(map[string]*keyCell)
	} else {
		clear(s.intern)
	}
	s.specs, s.deps = specs, deps
	return specs
}

// launch lowers one job's graph and submits it into the pool, every task
// under the given priority hint. Called without s.mu.
func (s *Server) launch(j *job, sb *submitBuf, hint int) {
	specs := s.lower(j, &sb.g, hint)
	s.putSubmit(sb)
	// The runtime keeps nothing of the slabs: once the submit returns they
	// are cleared for the next launch, so that no finished job's hook,
	// arguments or key cells stay pinned.
	defer func() { clear(specs); clear(s.deps) }()
	s.marker(j, flightrec.MarkerLaunch)
	if _, err := s.rt.SubmitBatchCtx(j.ctx, specs); err != nil {
		// Nothing was submitted (cancelled before launch, or the pool is
		// shutting down): finish here — no task will ever account itself.
		// A pool shutting down fails the job like any other submit error.
		s.mu.Lock()
		if errors.Is(err, context.Canceled) || j.cancelRequested {
			s.finishLocked(j, jobCancelled)
		} else {
			j.noteErr(err)
			s.finishLocked(j, jobFailed)
		}
		s.mu.Unlock()
	}
}
