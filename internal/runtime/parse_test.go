package runtime

import (
	"context"
	"strings"
	"testing"
)

func TestSchedulerByName(t *testing.T) {
	cases := []struct {
		in      string
		want    SchedulerKind
		wantErr bool
	}{
		{"worksteal", WorkSteal, false},
		{"WorkSteal", WorkSteal, false},
		{"WORKSTEAL", WorkSteal, false},
		{"work-steal", WorkSteal, false},
		{"", WorkSteal, false},
		{"  worksteal  ", WorkSteal, false},
		{"fifo", FIFO, false},
		{"FIFO", FIFO, false},
		{" Fifo\t", FIFO, false},
		{"cats", CATS, false},
		{"CATS", CATS, false},
		{"Cats", CATS, false},
		{"lifo", 0, true},
		{"workstealing", 0, true},
		{"cats ", CATS, false},
		{"c a t s", 0, true},
	}
	for _, c := range cases {
		t.Run("in="+c.in, func(t *testing.T) {
			got, err := SchedulerByName(c.in)
			if c.wantErr {
				if err == nil {
					t.Fatalf("SchedulerByName(%q) = %v, want error", c.in, got)
				}
				// The error must teach: every valid name listed.
				for _, name := range SchedulerNames() {
					if !strings.Contains(err.Error(), name) {
						t.Fatalf("error %q does not mention valid name %q", err, name)
					}
				}
				return
			}
			if err != nil {
				t.Fatalf("SchedulerByName(%q): %v", c.in, err)
			}
			if got != c.want {
				t.Fatalf("SchedulerByName(%q) = %v, want %v", c.in, got, c.want)
			}
		})
	}
}

// Round trip: every kind's String form parses back to itself, in any case.
func TestSchedulerNameRoundTrip(t *testing.T) {
	for _, name := range SchedulerNames() {
		for _, variant := range []string{name, strings.ToUpper(name), strings.ToUpper(name[:1]) + name[1:]} {
			kind, err := SchedulerByName(variant)
			if err != nil {
				t.Fatalf("SchedulerByName(%q): %v", variant, err)
			}
			if kind.String() != name {
				t.Fatalf("round trip %q -> %v -> %q", variant, kind, kind.String())
			}
		}
	}
}

// WithShards is ignored: a pool built with any value, the benchmark's 1
// included, runs a dependent chain as one built without it.
func TestWithShardsResolution(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		r := New(WithWorkers(2), WithShards(n))
		var count int // unsynchronised: the InOut chain must serialise
		for i := 0; i < 100; i++ {
			r.SubmitCtx(context.Background(), "inc", func(context.Context) error { count++; return nil }, InOut("k"))
		}
		r.Wait()
		r.Shutdown()
		if count != 100 {
			t.Errorf("WithShards(%d): the chain ran %d links, want 100", n, count)
		}
	}
}

// The one tracker preserves dataflow semantics over a key space of many
// concurrent chains.
func TestShardCountsPreserveSemantics(t *testing.T) {
	r := New(WithWorkers(4))
	defer r.Shutdown()
	counters := make([]int, 50) // unsynchronised: per-key chains must serialise
	const rounds = 20
	for round := 0; round < rounds; round++ {
		for k := range counters {
			r.SubmitCtx(context.Background(), "inc", func(context.Context) error { counters[k]++; return nil }, InOut(k))
		}
	}
	r.Wait()
	for k, c := range counters {
		if c != rounds {
			t.Fatalf("key %d: %d increments, want %d", k, c, rounds)
		}
	}
}
