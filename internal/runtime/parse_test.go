package runtime

import (
	stdruntime "runtime"
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

func TestWithShardsResolution(t *testing.T) {
	cases := []struct {
		in   int
		want int
	}{
		{1, 1},
		{2, 2},
		{7, 7}, // non-power-of-two counts are allowed (modulo hashing)
		{64, 64},
		{1000, maxShards},
	}
	for _, c := range cases {
		r := New(WithWorkers(1), WithShards(c.in))
		if got := len(r.shards); got != c.want {
			t.Errorf("WithShards(%d) resolved to %d, want %d", c.in, got, c.want)
		}
		r.Shutdown()
	}
	// Auto-sizing: next power of two >= GOMAXPROCS, within [1, maxShards].
	r := New(WithWorkers(1))
	defer r.Shutdown()
	got := len(r.shards)
	if got < 1 || got > maxShards || got&(got-1) != 0 {
		t.Fatalf("auto shards = %d, want a power of two in [1, %d]", got, maxShards)
	}
	if got < stdruntime.GOMAXPROCS(0) && got != maxShards {
		t.Fatalf("auto shards = %d < GOMAXPROCS %d", got, stdruntime.GOMAXPROCS(0))
	}
}

// Every shard count must preserve dataflow semantics; exercise a key space
// much larger than the shard count so multi-key collisions occur.
func TestShardCountsPreserveSemantics(t *testing.T) {
	for _, shards := range []int{1, 3, 8, 64} {
		r := New(WithWorkers(4), WithShards(shards))
		counters := make([]int, 50) // unsynchronised: per-key chains must serialise
		const rounds = 20
		for round := 0; round < rounds; round++ {
			for k := range counters {
				k := k
				r.Submit("inc", 1, func() { counters[k]++ }, InOut(k))
			}
		}
		r.Wait()
		r.Shutdown()
		for k, c := range counters {
			if c != rounds {
				t.Fatalf("shards=%d key %d: %d increments, want %d", shards, k, c, rounds)
			}
		}
	}
}
