// Package raa is the public front door of the runtime-aware-architecture
// reproduction: one uniform observe/decide/act surface over every study of
// the paper's evaluation. Each study — the hybrid memory hierarchy, the
// criticality-aware DVFS with the RSU, the VSR vector sort, the resilient
// CG solver, the PARSEC programmability model, the task-runtime throughput
// and heterogeneous-placement sweeps — implements the Experiment interface
// and registers itself; callers reach all of them by name through the
// registry with a JSON-serialisable Spec and get back a Result with
// uniform metrics plus the paper-style tables.
//
// # Running an experiment
//
//	exp, _ := raa.Get("hybridmem")
//	res, _ := exp.Run(ctx, exp.DefaultSpec())
//	fmt.Println(res.Metrics["avg_time_speedup"])
//
// or, driving everything generically (what cmd/raa-bench does):
//
//	res, _ := raa.Run(ctx, "resilient-cg", []byte(`{"grid": 64}`))
//	json.NewEncoder(os.Stdout).Encode(res)
//
// Run resolves the name (canonical or alias), overlays the JSON overrides
// onto the experiment's DefaultSpec (SpecFor/mergeSpec — partial documents
// like {"grid": 64} work, a key the spec does not have is an error), and
// executes under ctx; RunQuick starts from the reduced-scale QuickSpec
// instead. Cancelling the context stops the run at the next unit boundary
// and returns ctx.Err().
//
// # The Experiment contract
//
// An Experiment provides Name, DefaultSpec, and Run(ctx, spec), where spec
// is always of the dynamic type DefaultSpec returns. Optional extensions
// refine behaviour without burdening every implementation:
//
//	Describer  one-line description for listings (raa-bench -list)
//	Quicker    reduced-scale spec for smoke runs and CI (-quick)
//	Aliaser    alternate registry names (the paper's figure numbers)
//	Volatile   wall-clock results: determinism checks compare metric keys
//	           and table shapes rather than exact values
//
// Results are uniform: Metrics is a flat map of stable snake_case keys
// (MetricKey normalises name components), Tables carries the paper-style
// rendered tables, Notes free-text context, and the whole Result marshals
// to the JSON document the -json flags emit (WriteText renders the
// human-readable report).
//
// # Registration
//
// Experiments self-register from their package inits via Register;
// blank-importing repro/raa/experiments links the whole suite into a
// binary:
//
//	import _ "repro/raa/experiments"
//
// Duplicate names or aliases panic at init — always a programming error,
// caught the moment the two packages are first linked together.
package raa
