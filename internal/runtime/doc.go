// Package runtime implements an OmpSs-like task-based dataflow runtime — the
// software half of the paper's runtime-aware architecture. Programs submit
// tasks annotated with in/out/inout dependences over arbitrary data keys;
// the runtime builds the Task Dependency Graph dynamically (exactly as a
// superscalar core renames registers and tracks RAW/WAR/WAW hazards),
// schedules ready tasks over a pool of workers, and exposes the graph for
// analysis and for the simulated executor of package simexec.
//
// # Construction
//
// A runtime is built with functional options:
//
//	rt := runtime.New(
//	    runtime.WithWorkers(8),              // homogeneous pool, or:
//	    runtime.WithWorkerClasses(           // asymmetric big.LITTLE pool
//	        runtime.WorkerClass{Name: "big", Count: 2, Speed: 2},
//	        runtime.WorkerClass{Name: "little", Count: 6, Speed: 0.5},
//	    ),
//	    runtime.WithScheduler(runtime.CATS), // FIFO | WorkSteal | CATS
//	    runtime.WithQueueBound(256),         // backpressure; 0 = unbounded
//	    runtime.WithShards(16),              // dependence-tracker shards; 0 = auto
//	    runtime.WithLocalityWindow(32),      // worker-local successor window
//	    runtime.WithAdaptive(runtime.AdaptiveOptions{}), // online self-tuning
//	    runtime.WithTraceRetention(),        // keep the task trace for Graph
//	)
//
// Task bodies receive a context and may return an error; the runtime
// captures the first failure (Err, WaitCtx) and propagates cancellation:
// tasks whose submission context is cancelled before they start are
// skipped. The body's context also carries the executing worker's identity
// (TaskPlacement), so heterogeneous workloads can scale simulated work to
// the class that runs them.
//
// A task is a function plus an argument — the paper's outlined function
// and argument block. TaskSpec.Run is called as Run(ctx, Arg) on every
// attempt: the first, a retry, a deadline-bounded one (on the deadline
// goroutine) and one that parks through CompleteAfter; the argument is
// dropped when the task completes. A caller lowering many tasks points
// each Arg into one slab and passes one package-level Run, so a graph
// costs one object instead of a closure per task (a pointer, or an integer
// below 256, converts to any without allocating). The task record holds
// this one (run, arg) body: Body and Fn are adapters over it, and an Fn is
// still called without a context.
//
// # Submission and dependence tracking
//
// Submission order defines program order, and the tracker resolves
// RAW/WAR/WAW hazards against it per key — OmpSs semantics with no storage
// renaming. The tracker is sharded by key hash (WithShards, auto-sized to
// the machine by default): submissions whose keys land on different shards
// register fully in parallel, and a task spanning several shards locks
// them in ascending index order, so the submit path scales with producer
// count instead of funnelling through one renamer lock. SubmitBatch and
// SubmitBatchCtx amortise shard locking and scheduler wakeups over a
// whole slice of TaskSpecs.
//
// # Scheduler taxonomy
//
// Three schedulers are provided (SchedulerKind, WithScheduler):
//
//	FIFO      a single central queue — the simplest baseline, class-blind
//	          by design.
//	WorkSteal per-worker lock-free Chase–Lev deques with randomized FIFO
//	          stealing and a parking list for idle workers (the production
//	          default, Nanos++-style). On a heterogeneous pool, victim
//	          sweeps visit fast-class deques first: fast workers keep
//	          critical work inside their class, and slow workers stealing
//	          a fast worker's oldest entries help its backlog drain.
//	CATS      criticality-aware: a central priority structure ordered by
//	          the dynamically-maintained bottom-level estimate, so tasks
//	          on the critical path run first (Section 3.1). On a
//	          heterogeneous pool it is also placement-aware: critical
//	          tasks go to fast-class workers, and slow workers take
//	          critical work only when every fast worker is already
//	          running critical work (saturation). A ready task holds one
//	          heap entry; one that turns critical while queued is
//	          refiled as critical work when it surfaces.
//
// # Worker classes
//
// WithWorkerClasses models an asymmetric machine: each WorkerClass
// contributes Count workers at a relative Speed. Classes are resolved
// fastest first and worker IDs are assigned in that order; the classes
// whose speed ties the pool's maximum form the fast class that the
// placement rules above target. Speed is advisory — the runtime does not
// throttle anything — but task bodies can read their placement back
// (TaskPlacement) and scale simulated work accordingly, which is how the
// throughput experiment's hetero scenario models a big.LITTLE machine.
// Stats.PerClass reports how many tasks each class executed.
//
// # Memory lifecycle and trace retention
//
// By default the runtime's memory stays bounded by the work in flight:
// completed tasks drop their body, argument, context, and dependence log,
// queue slots release popped pointers, and the dependence tracker
// scavenges its per-key records — a key's last writer and its reader list
// — once every task that named the key is retired (and hands the list to
// the next key that needs one), so a runtime can serve submissions
// indefinitely even when every submission mints fresh keys. A full reader
// list drops its retired readers before it grows, so a key that is only
// ever read holds its live readers, not its history. Building with
// WithTraceRetention keeps the full task trace instead, which Graph needs
// for export; without it Graph fails with ErrNoTrace.
//
// Beyond bounded, the steady-state lifecycle is allocation-free: task
// records recycle through a per-runtime freelist (made safe by
// generation-tagged references — see the task type), small dependence and
// successor sets live in inline arrays on the record, and the context a
// body receives is an immutable placement wrapper cached per (worker,
// submission context) — ordinary context semantics, safe to retain,
// derive from, and use from other goroutines, at zero per-task
// allocation when consecutive tasks share a submission context.
//
// # Locality
//
// The runtime sees the dependence graph, so it decides where a consumer
// runs relative to its producer instead of handing every ready task to a
// shared queue: under the work-stealing scheduler, successors released by
// a completing worker go onto that worker's own deque (LIFO, so the
// consumer reuses the producer's warm cache) up to a bounded window
// (WithLocalityWindow), past which fans spill to the shared injector and
// parallelise. Submissions made from inside a task body with the body's
// context take the same worker-local path. The throughput experiment's
// locality scenario measures the effect against the window-disabled
// baseline.
//
// # Source map
//
// One implementation per step of a task's life:
//
//	submit.go      the six Submit entry points (thin wrappers), submitSpecs
//	               (the one submission path) and markReady (the one ready
//	               transition: the recorder's ready event, written before
//	               the scheduler push that makes the task dispatchable)
//	shard.go       the sharded dependence tracker (trackDeps, linkPreds)
//	scheduler.go   the scheduler contract — one interface, no-op defaults
//	               for the scheduler-specific hooks — and the pieces the
//	               schedulers share (park/wake bookkeeping, the central lot)
//	sched_fifo.go, sched_steal.go, sched_cats.go
//	               the three schedulers
//	worker.go      the worker loop: accountDispatch, runAttempt, finish,
//	               complete, and the fault paths (retry, deadline, poison)
//	signals.go     the per-worker counter block and the cross-cutting
//	               counters StatsInto groups at read time
//	adaptive.go, policy.go
//	               the controller and the class mask it rewrites
//	runtime.go     types, construction, Wait, Shutdown, Stats, Graph
//
// # Adaptive control
//
// WithAdaptive closes one loop over a heterogeneous pool — the paper's
// runtime that observes its task graph and decides which cores run it. A
// background controller reads the scheduler's queued-task count every
// AdaptiveOptions.Period and runs one pure rule on it: a serial phase
// (at most one task queued) narrows the active-class mask to the fast
// class — slow workers gate-park until the mask widens — and work for
// every worker widens it back. The mask changes only after the proposal
// has held for Hysteresis consecutive samples, every applied decision is
// recorded in the flight recorder as a timeline marker (KindAdapt, carrying
// the queued count the rule saw; a tick that changes nothing records
// nothing, so the controller never laps the submit-path history), and
// Stats.Adaptive reports the live mask plus sample/decision counts. The
// locality window and the injector refill chunk are construction-time
// constants, not policy (DESIGN.md § Adaptive control › "Mechanism table"
// has the measurements). The throughput experiment's adaptive scenario
// pits the controller against the static configurations on a
// phase-shifting workload, one paired ratio per static arm;
// internal/throughput's
// TestAdaptiveClassRuleRent fails if the rule stops paying.
package runtime
