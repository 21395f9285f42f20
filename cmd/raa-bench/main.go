// Command raa-bench is the single entry point to every experiment of the
// paper's evaluation, driven through the raa registry. Each experiment
// prints the paper-style tables (and ASCII figures where the paper uses a
// plot) plus the paper's reference numbers, or a machine-readable JSON
// result document.
//
// Usage:
//
//	raa-bench -list                             # enumerate experiments
//	raa-bench -experiment all                   # everything, full scale
//	raa-bench -experiment hybridmem             # one experiment
//	raa-bench -experiment resilient-cg -quick   # reduced problem scale
//	raa-bench -experiment hybridmem -json       # machine-readable result
//	raa-bench -experiment vsort -spec '{"n": 65536}'
//	raa-bench -experiment throughput \
//	    -spec '{"scenarios": ["hetero"], "schedulers": ["cats", "fifo"]}'  # big.LITTLE placement
//	raa-bench -experiment throughput \
//	    -spec '{"scenarios": ["locality"]}'       # worker-local vs injector successor placement
//	raa-bench -experiment throughput \
//	    -spec '{"scenarios": ["adaptive"], "batch": 0}'  # the controller vs each static arm
//	raa-bench -experiment throughput \
//	    -spec '{"scenarios": ["chaos"], "schedulers": ["worksteal"]}'  # fault load vs clean run
//	raa-bench -flight-dump FLIGHT.json            # flight-recorder timeline + invariant
//	                                              # verdict from a mixed workload
//
// Interrupting with ^C cancels the run cleanly: in-flight experiments stop
// at the next unit boundary and the command exits with the context error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"repro/raa"
	_ "repro/raa/experiments"
)

func main() {
	experiment := flag.String("experiment", "all", "experiment to run (see -list, or \"all\")")
	exp := flag.String("exp", "", "alias for -experiment")
	quick := flag.Bool("quick", false, "reduced problem scale for smoke runs")
	jsonOut := flag.Bool("json", false, "emit results as JSON documents, one per experiment")
	spec := flag.String("spec", "", "JSON overrides applied on top of the experiment's default spec")
	list := flag.Bool("list", false, "list experiments and exit")
	flightDumpPath := flag.String("flight-dump", "", "run a mixed workload under the flight recorder + online checker and write the merged event timeline as JSON to this path")
	flag.Parse()

	if *flightDumpPath != "" {
		if err := runFlightDump(*flightDumpPath); err != nil {
			fatal(err)
		}
		return
	}
	if *list {
		for _, e := range raa.All() {
			fmt.Printf("%-20s %s\n", e.Name(), raa.Describe(e))
		}
		return
	}
	name := *experiment
	if *exp != "" {
		name = *exp
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	names := []string{name}
	if name == "all" {
		if *spec != "" {
			fatal(fmt.Errorf("-spec needs a single -experiment, not \"all\""))
		}
		names = raa.Names()
	}
	for _, n := range names {
		res, err := run(ctx, n, *quick, []byte(*spec))
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(res); err != nil {
				fatal(err)
			}
			continue
		}
		fmt.Printf("==> %s — %s\n\n", res.Experiment, describe(n))
		if err := res.WriteText(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
}

func run(ctx context.Context, name string, quick bool, spec []byte) (*raa.Result, error) {
	if quick {
		return raa.RunQuick(ctx, name, spec)
	}
	return raa.Run(ctx, name, spec)
}

func describe(name string) string {
	e, err := raa.Get(name)
	if err != nil {
		return ""
	}
	return raa.Describe(e)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "raa-bench:", err)
	os.Exit(1)
}
