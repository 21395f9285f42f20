package runtime

import (
	"fmt"
	"time"
)

// PanicError is the typed error a task body's panic is converted into. The
// worker recovers the panic instead of letting it unwind the pool: the task
// is marked failed (or retried, when the spec carries a RetryPolicy), its
// successors are skip-poisoned, and the first PanicError is surfaced by
// Err/Wait/WaitCtx like any body error — errors.As-able, with the panic
// value and the captured goroutine stack preserved for diagnosis.
type PanicError struct {
	// TaskName is the panicking task's name ("" for unnamed tasks).
	TaskName string
	// Value is the value the body panicked with.
	Value any
	// Stack is the panicking goroutine's stack, captured at recover time.
	Stack []byte
}

// Error renders the panic without the stack (Stack is for logs, not for
// error-string matching).
func (e *PanicError) Error() string {
	return fmt.Sprintf("task %s: body panicked: %v", e.TaskName, e.Value)
}

// DeadlineError is the typed error of a task whose body overran its
// TaskSpec.Deadline. The body's context was cancelled at the bound; a body
// that ignores the cancellation keeps running on an abandoned goroutine
// (the worker is never blocked), but the task is already terminally failed
// (or re-armed for retry) with this error.
type DeadlineError struct {
	// TaskName is the overrunning task's name.
	TaskName string
	// Limit is the deadline the body exceeded.
	Limit time.Duration
}

// Error implements the error interface.
func (e *DeadlineError) Error() string {
	return fmt.Sprintf("task %s: deadline %v exceeded", e.TaskName, e.Limit)
}

// SkipError is the typed error of a task that never ran because a
// predecessor terminally panicked: panic failures poison their successors,
// which are skipped (OnDone still fires, with this error) instead of
// running against inputs that were never produced. Cause is the root
// predecessor failure; Unwrap exposes it to errors.Is/As.
type SkipError struct {
	// TaskName is the skipped task's name.
	TaskName string
	// Cause is the root failure that poisoned this task's inputs.
	Cause error
}

// Error implements the error interface.
func (e *SkipError) Error() string {
	return fmt.Sprintf("task %s: skipped: predecessor failed: %v", e.TaskName, e.Cause)
}

// Unwrap exposes the poisoning root failure.
func (e *SkipError) Unwrap() error { return e.Cause }

// RetryPolicy configures per-task retry of failed (error-returning,
// panicking, or deadline-overrunning) body attempts. The zero value means
// no retries: the first failure is terminal. A failure after the task's
// context is cancelled is terminal too, and a cancellation that comes
// during a backoff ends the backoff: the task re-enters the scheduler at
// once and is skipped as cancelled, so nothing — Wait, Shutdown, a
// service's quota — waits out the backoff of work nobody wants. A live
// backoff is waited out by a waiter goroutine, as a CompleteAfter wait is,
// never by a worker; the task stays outstanding throughout.
type RetryPolicy struct {
	// Max is the maximum number of RE-tries: a task runs at most Max+1
	// attempts. 0 disables retry.
	Max int
	// Backoff is the delay before the first retry; each further retry
	// doubles it (capped exponential backoff). 0 re-enqueues immediately.
	// A sub-second backoff keeps time on an idle pool (see internal/alarm).
	Backoff time.Duration
	// MaxBackoff caps the exponential growth (0 = uncapped).
	MaxBackoff time.Duration
}

// delay computes the backoff before retry attempt n (1-based).
func (p RetryPolicy) delay(n int) time.Duration {
	d := max(p.Backoff, 0)
	for i := 1; i < n && d > 0 && (p.MaxBackoff <= 0 || d < p.MaxBackoff); i++ {
		d *= 2
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		return p.MaxBackoff
	}
	return d
}
