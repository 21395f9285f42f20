package raa_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/raa"
	_ "repro/raa/experiments"
)

// TestRegistryComplete pins the public surface: all five paper studies (and
// the two companion studies) are reachable, both by canonical name and by
// the paper's figure numbers.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"hybridmem", "criticality-dvfs", "vsort", "resilient-cg",
		"parsec-scalability", "parsec-loc", "rsu-scaling",
	}
	names := raa.Names()
	if len(names) < 5 {
		t.Fatalf("registry has %d experiments, want >= 5", len(names))
	}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("registry missing %q (have %v)", w, names)
		}
	}
	for alias, canon := range map[string]string{
		"fig1": "hybridmem",
		"fig2": "criticality-dvfs",
		"fig3": "vsort",
		"fig4": "resilient-cg",
		"fig5": "parsec-scalability",
		"loc":  "parsec-loc",
		"rsu":  "rsu-scaling",
	} {
		e, err := raa.Get(alias)
		if err != nil {
			t.Errorf("alias %s: %v", alias, err)
			continue
		}
		if e.Name() != canon {
			t.Errorf("alias %s resolved to %s, want %s", alias, e.Name(), canon)
		}
	}
	if _, err := raa.Get("nope"); err == nil {
		t.Error("unknown experiment must error")
	}
}

// TestSpecRoundTrip checks, for every registered experiment, that its specs
// survive the JSON round trip the registry and the -spec/-json flags rely
// on: default marshals and unmarshals back to an identical value, and the
// quick (test-size) spec still Runs after the round trip.
func TestSpecRoundTrip(t *testing.T) {
	for _, e := range raa.All() {
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			def := e.DefaultSpec()
			raw, err := json.Marshal(def)
			if err != nil {
				t.Fatalf("default spec does not marshal: %v", err)
			}
			back, err := raa.SpecFor(e, false, raw)
			if err != nil {
				t.Fatalf("default spec does not unmarshal: %v", err)
			}
			if !reflect.DeepEqual(def, back) {
				t.Fatalf("default spec round trip drifted:\n  was  %#v\n  back %#v", def, back)
			}

			quick, err := raa.SpecFor(e, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			qraw, err := json.Marshal(quick)
			if err != nil {
				t.Fatalf("quick spec does not marshal: %v", err)
			}
			res, err := raa.RunQuick(context.Background(), e.Name(), qraw)
			if err != nil {
				t.Fatalf("quick run after round trip: %v", err)
			}
			if res.Experiment != e.Name() {
				t.Errorf("result experiment %q, want %q", res.Experiment, e.Name())
			}
			if len(res.Metrics) == 0 {
				t.Error("result has no metrics")
			}
			var buf bytes.Buffer
			if err := res.WriteText(&buf); err != nil || buf.Len() == 0 {
				t.Errorf("text rendering: err=%v len=%d", err, buf.Len())
			}
			doc, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("result does not marshal: %v", err)
			}
			var parsed map[string]any
			if err := json.Unmarshal(doc, &parsed); err != nil {
				t.Fatalf("result JSON does not parse back: %v", err)
			}
			if parsed["experiment"] != e.Name() {
				t.Errorf("JSON document experiment = %v", parsed["experiment"])
			}
		})
	}
}

// TestSpecOverrides checks the registry merges JSON overrides on top of
// defaults instead of replacing them.
func TestSpecOverrides(t *testing.T) {
	e, err := raa.Get("resilient-cg")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := raa.SpecFor(e, false, []byte(`{"grid": 31}`))
	if err != nil {
		t.Fatal(err)
	}
	v := reflect.ValueOf(spec)
	if got := v.FieldByName("Grid").Int(); got != 31 {
		t.Errorf("override not applied: Grid = %d", got)
	}
	if got := v.FieldByName("MaxIters").Int(); got == 0 {
		t.Error("defaults lost during merge: MaxIters = 0")
	}
	if _, err := raa.SpecFor(e, false, []byte(`{"grid": "not a number"}`)); err == nil {
		t.Error("bad override must error")
	}
}

// TestSpecUnknownKeyRejected: an override key the spec does not have — a
// typo, or a knob a later PR retired ("domains" was the throughput topology
// scenario's; "shards", "producers", "keys" and "rounds" went with the
// unpaired sweep in PR 21, and so did the scenario name "steal") — fails
// with an error naming the key instead of running as if nothing had been
// passed, while every spec the README, CI, the raa-bench doc comment, the
// verify skill and the examples pass still parses.
func TestSpecUnknownKeyRejected(t *testing.T) {
	for _, tc := range []struct{ experiment, spec, key string }{
		{"vsort", `{"bogus_key": 3}`, "bogus_key"},
		{"throughput", `{"domains": 2}`, "domains"},
		{"throughput", `{"tasks": 100, "scenarios": ["hetero"], "Bogus": 1}`, "Bogus"},
		{"throughput", `{"shards": [1]}`, "shards"},
		{"throughput", `{"producers": 4}`, "producers"},
		{"throughput", `{"keys": 64}`, "keys"},
		{"throughput", `{"rounds": 2}`, "rounds"},
	} {
		if _, err := raa.SpecFor(mustGet(t, tc.experiment), false, []byte(tc.spec)); err == nil || !strings.Contains(err.Error(), `"`+tc.key+`"`) {
			t.Errorf("%s -spec %s: err = %v, want one naming %q", tc.experiment, tc.spec, err, tc.key)
		}
	}
	// A retired scenario name parses (it is a value, not a key) and is
	// refused by name before anything runs.
	if _, err := raa.RunQuick(context.Background(), "throughput", []byte(`{"scenarios": ["steal"]}`)); err == nil || !strings.Contains(err.Error(), `"steal"`) {
		t.Errorf(`throughput -spec {"scenarios": ["steal"]}: err = %v, want one naming "steal"`, err)
	}
	if _, err := raa.SpecFor(mustGet(t, "vsort"), false, []byte(`{"n": 64} {"n": 65}`)); err == nil {
		t.Error("a second JSON document after the spec must error")
	}
	// The specs README, ci.yml, the raa-bench doc comment, the verify skill
	// and the examples (raa.Run(ctx, name, spec)) pass — kept by hand. Run on a
	// cancelled context, a spec whose keys and names are all valid gets as far
	// as the first unit of work and returns the context's error; any other
	// error is the spec's.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct{ experiment, spec string }{
		{"vsort", `{"n": 65536}`},
		{"throughput", `{"scenarios": ["locality"]}`},
		{"throughput", `{"scenarios": ["hetero"], "schedulers": ["cats", "fifo"]}`},
		{"throughput", `{"scenarios": ["chaos"], "schedulers": ["worksteal"]}`},
		{"parsec-scalability", `{"threads": [1, 2, 4, 8, 16]}`},
		{"resilient-cg", `{"grid": 96, "trace_stride": 8}`},
		{"criticality-dvfs", `{"blocks": 12, "sweep": false}`},
	} {
		if _, err := raa.RunQuick(cancelled, tc.experiment, []byte(tc.spec)); !errors.Is(err, context.Canceled) {
			t.Errorf("%s -spec %s: %v", tc.experiment, tc.spec, err)
		}
	}
}

func mustGet(t *testing.T, name string) raa.Experiment {
	t.Helper()
	e, err := raa.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestRunCancelled proves the uniform contract of the redesigned API:
// cancellation makes every experiment's Run return ctx.Err().
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range raa.All() {
		if _, err := raa.RunQuick(ctx, e.Name(), nil); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled run returned %v, want context.Canceled", e.Name(), err)
		}
	}
}

// TestRunCancelledMidFlight cancels a full-scale suite run shortly after it
// starts: the experiment must stop at the next unit boundary instead of
// completing the remaining kernels.
func TestRunCancelledMidFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := raa.Run(ctx, "hybridmem", nil) // full bench suite: seconds of work
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-flight cancel returned %v, want context.Canceled", err)
		}
		// The bound is one kernel unit, not a constant: under the race
		// detector with the whole module's test binaries sharing the box, a
		// single unit can run tens of seconds, and the check must separate
		// "finished the current unit then stopped" from "ran the rest of the
		// suite" (minutes) without flaking on load.
		if elapsed := time.Since(start); elapsed > 50*time.Second {
			t.Fatalf("cancellation took %v — experiment did not stop early", elapsed)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("experiment ignored cancellation")
	}
}

// TestRunUnknownExperiment pins the error path of the single entry point.
func TestRunUnknownExperiment(t *testing.T) {
	_, err := raa.Run(context.Background(), "no-such-study", nil)
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("Run(unknown) = %v", err)
	}
}
