// Package flightrec is the runtime's always-on flight recorder: fixed
// memory, allocation-free recording, snapshot-on-demand.
//
// One event ring per worker (single-writer, lock-free), one for the submit
// lane (single-writer under serialisation the caller provides — the task
// runtime records on it under its dependence-tracker lock), and one shared
// external ring capture the task lifecycle — submit, ready, dispatch,
// steal, park, wake, complete — as fixed-size, pointer-free entries. Each
// ring is a power-of-two circular buffer that overwrites its oldest entry
// when full, so a long-lived runtime retains the recent past in bounded
// memory instead of choosing between unbounded trace retention and
// nothing.
//
// Three mechanisms make the recorder cheap enough to leave on:
//
//   - The record path copies a handful of words into a preallocated slot;
//     no allocation, no lock on the worker rings or the lane (the submit
//     path records on the lane under a mutex it already holds), and one short
//     spin-lock hold on the shared external ring.
//   - Timestamps come from a coarse clock word a background goroutine
//     refreshes (Options.ClockInterval, default 10ms) — one atomic load per
//     event instead of a time.Now call.
//   - Ordering comes from a global sequence counter: one atomic add per
//     event on the worker and external rings, amortised over a reserved
//     block on the lane (sound because the lane carries only first-of-task
//     events; see RecordLane). Every cross-ring causality of interest
//     spans a synchronises-with edge in the runtime (ready is recorded
//     inside the mark-ready critical section, before the task reaches a
//     queue), so merging rings by sequence yields a timeline in which
//     causes precede effects.
//
// Snapshots (Recorder.Snapshot, Tail for the last N seconds, Collect for
// cursor-based incremental consumption) never block a writer: a reader
// copies the resident window and then re-reads the ring head, discarding —
// and reporting as a gap — any position the writer could have wrapped back
// to during the copy, rather than surfacing torn data. The
// verify subpackage consumes these snapshots and checks runtime invariants
// online; cmd/raa-bench -flight-dump exports a merged timeline as JSON for
// offline inspection.
package flightrec
