package runtime

import (
	"context"
	"errors"
	"testing"
	"time"
)

// runProbe is one Run task's argument and its record of what Run saw.
type runProbe struct {
	name      string
	failFirst bool // the first attempt fails, so a retry runs
	park      bool // the body asks CompleteAfter for a 1 ms wait
	calls     int  // written by Run, read after the task's OnDone
	foreign   int  // calls whose context named another task's argument
	parked    bool
	done      chan error // OnDone's error
}

// probeKey names, in a task's submission context, the argument that task
// was submitted with: Run checks the one it is called with against it.
type probeKey struct{}

func probeRun(ctx context.Context, arg any) error {
	p := arg.(*runProbe)
	p.calls++
	if ctx.Value(probeKey{}) != arg {
		p.foreign++
	}
	if p.failFirst && p.calls == 1 {
		return errors.New("first attempt fails")
	}
	if p.park {
		p.parked = CompleteAfter(ctx, time.Millisecond)
	}
	return nil
}

// TestRunSeesItsArg: a Run task is called with its own Arg on every
// attempt — the first, a retried one, a deadline-bounded one (on the
// deadline goroutine) and one that parks through CompleteAfter — and a
// task skipped on a cancelled context never calls Run, while its OnDone
// hears the context's error. Each task is submitted under a context that
// names its argument, so an argument handed to the wrong task shows.
func TestRunSeesItsArg(t *testing.T) {
	eachScheduler(t, func(t *testing.T, kind SchedulerKind) {
		r := New(WithWorkers(2), WithScheduler(kind))
		defer r.Shutdown()
		gate := make(chan struct{})
		if _, err := r.SubmitCtx(context.Background(), "gate", func(context.Context) error { <-gate; return nil }, Out("gate")); err != nil {
			t.Fatal(err)
		}
		submit := func(ctx context.Context, p *runProbe, sp TaskSpec) {
			p.done = make(chan error, 1)
			sp.Name, sp.Run, sp.Arg = p.name, probeRun, p
			sp.OnDone = func(err error) { p.done <- err }
			if _, err := r.SubmitBatchCtx(context.WithValue(ctx, probeKey{}, p), []TaskSpec{sp}); err != nil {
				t.Fatal(err)
			}
		}
		first := &runProbe{name: "first"}
		retried := &runProbe{name: "retried", failFirst: true}
		deadline := &runProbe{name: "deadline"}
		parked := &runProbe{name: "parked", park: true}
		skipped := &runProbe{name: "skipped"}
		bg := context.Background()
		submit(bg, first, TaskSpec{})
		submit(bg, retried, TaskSpec{Retry: RetryPolicy{Max: 1}})
		submit(bg, deadline, TaskSpec{Deadline: time.Minute})
		submit(bg, parked, TaskSpec{})
		ctx, cancel := context.WithCancel(bg)
		submit(ctx, skipped, TaskSpec{Deps: []Dep{In("gate")}}) // waits for the gate
		cancel()
		close(gate)
		for _, c := range []struct {
			p     *runProbe
			calls int
			err   error
		}{{first, 1, nil}, {retried, 2, nil}, {deadline, 1, nil}, {parked, 1, nil}, {skipped, 0, context.Canceled}} {
			if err := <-c.p.done; !errors.Is(err, c.err) {
				t.Errorf("%s: OnDone heard %v, want %v", c.p.name, err, c.err)
			}
			if c.p.calls != c.calls || c.p.foreign != 0 {
				t.Errorf("%s: Run called %d times, %d of them with another task's argument; want %d calls",
					c.p.name, c.p.calls, c.p.foreign, c.calls)
			}
		}
		if !parked.parked {
			t.Error("the parked task's CompleteAfter was refused")
		}
		r.Wait()
	})
}
