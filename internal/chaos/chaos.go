// Package chaos is the deterministic fault injector behind every
// robustness claim in this repo: it wraps task bodies and makes a seeded,
// reproducible fraction of them panic, fail, stall, or overrun their
// deadline — so "the pool survives misbehaving tasks" is a CI assertion
// over an exact fault schedule, not an anecdote.
//
// Determinism is the point. Each wrapped body is identified by a caller
// chosen key; the injector hashes (seed, key, attempt) with splitmix64 and
// derives every fault decision from the hash, so the same seed over the
// same workload produces the same faults on every run, on every scheduler,
// at any interleaving. Non-sticky faults fire only on a body's first
// attempt — a retried attempt of the same key runs clean, which is exactly
// the transient-fault shape retry policies exist for. Sticky faults fire
// on every attempt, modelling the poisoned task that must exhaust its
// retry budget and be quarantined.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/alarm"
)

// ErrInjected is the sentinel error injected bodies fail with; injected
// failures are errors.Is-distinguishable from organic ones.
var ErrInjected = errors.New("chaos: injected fault")

// Config configures an Injector. Rates are probabilities in [0, 1],
// evaluated per wrapped body (by key, not per call): a body is assigned at
// most one fault class, panic taking precedence over error over delay.
type Config struct {
	// Seed drives the fault schedule; the same seed reproduces the same
	// faults over the same keys.
	Seed uint64
	// PanicRate is the fraction of bodies that panic.
	PanicRate float64
	// ErrorRate is the fraction of bodies that fail with ErrInjected.
	ErrorRate float64
	// DelayRate is the fraction of bodies stalled by Delay before running —
	// the deadline-overrun fault when Delay exceeds the task's deadline.
	DelayRate float64
	// StickyRate is the fraction of FAULTED bodies whose fault fires on
	// every attempt (modelling a poisoned task that must be quarantined)
	// instead of only the first (a transient a retry absorbs).
	StickyRate float64
	// Delay is the stall injected into delay-faulted bodies (default 1ms).
	// Delay waits honour the body's context, so a deadline-bounded task
	// fails at its bound, not after the full stall.
	Delay time.Duration
}

// Stats counts the faults an Injector has fired, by class.
type Stats struct {
	// Panics is the number of injected panics fired.
	Panics uint64
	// Errors is the number of injected errors fired.
	Errors uint64
	// Delays is the number of injected stalls fired.
	Delays uint64
	// Sticky is the number of fault firings on retried (attempt > 0)
	// executions — evidence the sticky schedule engaged.
	Sticky uint64
}

// Injector deterministically injects faults into wrapped task bodies.
// All methods are safe for concurrent use.
type Injector struct {
	cfg     Config
	panics  atomic.Uint64
	errors  atomic.Uint64
	delays  atomic.Uint64
	sticky  atomic.Uint64
	invoked atomic.Uint64
}

// New creates an Injector from cfg (a nil-safe zero Config injects
// nothing).
func New(cfg Config) *Injector {
	if cfg.Delay <= 0 {
		cfg.Delay = time.Millisecond
	}
	return &Injector{cfg: cfg}
}

// Stats returns a snapshot of the fault counters.
func (in *Injector) Stats() Stats {
	return Stats{
		Panics: in.panics.Load(),
		Errors: in.errors.Load(),
		Delays: in.delays.Load(),
		Sticky: in.sticky.Load(),
	}
}

// Invocations returns the number of wrapped-body executions observed.
func (in *Injector) Invocations() uint64 { return in.invoked.Load() }

// splitmix64 is the 64-bit finalizer of the splitmix64 generator: a cheap,
// statistically solid hash from (seed, key) to an independent uniform word.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a hash word to a uniform float64 in [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// faultClass is the fault assigned to one body key.
type faultClass uint8

const (
	faultNone faultClass = iota
	faultPanic
	faultError
	faultDelay
)

// plan resolves the deterministic fault assignment of one key: its class
// and whether the fault is sticky across attempts.
func (in *Injector) plan(key uint64) (faultClass, bool) {
	h := splitmix64(in.cfg.Seed ^ splitmix64(key))
	u := unit(h)
	var class faultClass
	switch {
	case u < in.cfg.PanicRate:
		class = faultPanic
	case u < in.cfg.PanicRate+in.cfg.ErrorRate:
		class = faultError
	case u < in.cfg.PanicRate+in.cfg.ErrorRate+in.cfg.DelayRate:
		class = faultDelay
	default:
		return faultNone, false
	}
	// Independent bits for stickiness: reuse the hash through one more
	// mixing round so the sticky decision doesn't correlate with the class.
	sticky := unit(splitmix64(h)) < in.cfg.StickyRate
	return class, sticky
}

// Wrap returns body with key's scheduled fault injected. The wrapper
// tracks its own attempt count (each call is one attempt), so a non-sticky
// fault fires only on attempt 0 and retries run clean; Wrap must therefore
// be called once per submitted task, not once per execution. A nil
// injector returns body unchanged.
func (in *Injector) Wrap(key uint64, body func(ctx context.Context) error) func(ctx context.Context) error {
	if in == nil {
		return body
	}
	class, sticky := in.plan(key)
	if class == faultNone {
		return func(ctx context.Context) error {
			in.invoked.Add(1)
			return body(ctx)
		}
	}
	var attempts atomic.Uint64
	return func(ctx context.Context) error {
		in.invoked.Add(1)
		attempt := attempts.Add(1) - 1
		if attempt > 0 && !sticky {
			return body(ctx) // transient fault: the retry runs clean
		}
		if attempt > 0 {
			in.sticky.Add(1)
		}
		switch class {
		case faultPanic:
			in.panics.Add(1)
			panic(fmt.Sprintf("chaos: injected panic (key %d, attempt %d)", key, attempt))
		case faultError:
			in.errors.Add(1)
			return fmt.Errorf("%w (key %d, attempt %d)", ErrInjected, key, attempt)
		default: // faultDelay
			in.delays.Add(1)
			if err := alarm.Sleep(ctx, in.cfg.Delay, nil); err != nil {
				return err
			}
			return body(ctx)
		}
	}
}
