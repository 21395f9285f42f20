// The -flight-dump mode: run a mixed workload with the flight recorder and
// the online invariant checker enabled, then export the recorder's merged
// timeline plus the checker's verdict as one JSON document for offline
// replay and inspection. This is the smallest end-to-end demonstration of
// the recorder subsystem — the same wiring a long-running service would use,
// compressed into a few hundred milliseconds of work.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/flightrec"
	"repro/internal/flightrec/verify"
	"repro/internal/runtime"
)

// flightDump is the document -flight-dump writes.
type flightDump struct {
	// CapturedAt is the wall-clock time of the dump.
	CapturedAt time.Time `json:"captured_at"`
	// Workers and PerWorkerEvents echo the recorder geometry so a reader
	// knows the window the events were retained in.
	Workers         int `json:"workers"`
	PerWorkerEvents int `json:"per_worker_events"`
	// EventsRecorded is the recorder's lifetime event count — events beyond
	// len(Events) were recorded but already overwritten (ring window).
	EventsRecorded uint64 `json:"events_recorded"`
	// Verify is the online checker's final verdict over the full stream.
	Verify verify.Stats `json:"verify"`
	// Events is the merged timeline (all rings, ordered by global sequence)
	// still resident at dump time.
	Events []flightrec.Event `json:"events"`
}

// runFlightDump drives a dependence-mixed workload (chains for recycling
// pressure, fans for steal pressure) under the recorder and online checker,
// then writes the timeline document to path.
func runFlightDump(path string) error {
	r := runtime.New(
		runtime.WithWorkers(4),
		runtime.WithQueueBound(512),
		runtime.WithFlightRecorder(flightrec.Options{PerWorkerEvents: 4096}),
	)
	rec := r.FlightRecorder()
	online := verify.StartOnline(rec, verify.Options{
		StarveBound: 10 * time.Second,
	}, time.Millisecond)

	// The bodies are nil: a task without one is a no-op that still takes
	// part in dependence ordering.
	for i := 0; i < 2000; i++ {
		if _, err := r.SubmitCtx(context.Background(), "chain", nil, runtime.InOut("c")); err != nil {
			return err
		}
		if i%16 == 0 {
			fan := fmt.Sprintf("f%d", i)
			if _, err := r.SubmitCtx(context.Background(), "root", nil, runtime.Out(fan)); err != nil {
				return err
			}
			for j := 0; j < 7; j++ {
				if _, err := r.SubmitCtx(context.Background(), "leaf", nil, runtime.In(fan)); err != nil {
					return err
				}
			}
		}
	}
	r.Wait()
	events := rec.Snapshot()
	r.Shutdown()
	st := online.Stop()

	doc := flightDump{
		CapturedAt:      time.Now(),
		Workers:         rec.Workers(),
		PerWorkerEvents: 4096,
		EventsRecorded:  rec.EventCount(),
		Verify:          st,
		Events:          events,
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d resident events of %d recorded, verify: %d violations)\n",
		path, len(doc.Events), doc.EventsRecorded, st.Total)
	if st.Total != 0 {
		return fmt.Errorf("invariant checker flagged %d violations (see %s)", st.Total, path)
	}
	return nil
}
