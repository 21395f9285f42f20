//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"

	"repro/internal/runtime"
	"repro/internal/serve"
)

// Workload names, in the order -all runs them.
const (
	wlDeps     = "rt-deps"
	wlFanout   = "rt-fanout"
	wlOpen     = "serve-open"
	wlOverload = "serve-overload"
)

var workloadNames = []string{wlDeps, wlFanout, wlOpen, wlOverload}

func isServe(workload string) bool { return workload == wlOpen || workload == wlOverload }

// newRand derives the generator for one workload from the run seed; the
// stream number keeps the workloads' inputs independent of each other.
func newRand(seed uint64, workload string) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(slices.Index(workloadNames, workload)+1)))
}

// ---- in-process graphs ----

// rtKeys is the size of the pre-boxed dependence-key set the in-process
// workloads draw from: small enough that the tracker's per-key state is
// steady, boxed once so a submit never allocates for a key.
const rtKeys = 256

// rtTemplates is how many graph templates one run cycles through.
const rtTemplates = 4096

// rtMaxTasks is the largest in-process graph (the dep-free batch).
const rtMaxTasks = 64

// shapeDep is one dependence of a shape's task: which of the graph's key
// slots it names and how it accesses it.
type shapeDep struct {
	slot uint8
	mode runtime.AccessMode
}

// shape is the structure shared by every graph of one kind; a graph is a
// shape plus the keys bound to its slots.
type shape struct {
	name  string
	tasks [][]shapeDep
	// spawn: task 0 is submitted alone and its body submits tasks[1:] with
	// its own body context (the worker-local path).
	spawn bool
}

const (
	shapeDeps16 = iota
	shapeBatch64
	shapeFan16
	shapeSpawn16
)

var shapes = [...]shape{
	shapeDeps16:  {name: "deps16", tasks: deps16Tasks()},
	shapeBatch64: {name: "batch64", tasks: make([][]shapeDep, 64)},
	shapeFan16:   {name: "fan16", tasks: fan16Tasks()},
	shapeSpawn16: {name: "spawn16", tasks: make([][]shapeDep, 16), spawn: true},
}

// deps16Tasks is 4 keys × 4 layers of InOut; odd layers also read the
// neighbour key, so the four chains are braided together.
func deps16Tasks() [][]shapeDep {
	var tasks [][]shapeDep
	for layer := 0; layer < 4; layer++ {
		for k := uint8(0); k < 4; k++ {
			deps := []shapeDep{{slot: k, mode: runtime.ModeInOut}}
			if layer%2 == 1 {
				deps = append(deps, shapeDep{slot: (k + 1) % 4, mode: runtime.ModeIn})
			}
			tasks = append(tasks, deps)
		}
	}
	return tasks
}

// fan16Tasks is one Out root and 15 In readers of the same key.
func fan16Tasks() [][]shapeDep {
	tasks := [][]shapeDep{{{slot: 0, mode: runtime.ModeOut}}}
	for i := 0; i < 15; i++ {
		tasks = append(tasks, []shapeDep{{slot: 0, mode: runtime.ModeIn}})
	}
	return tasks
}

// graphT is one generated in-process graph.
type graphT struct {
	shape uint8
	keys  [4]uint16
}

// genRTGraphs generates the template cycle of an in-process workload.
func genRTGraphs(workload string, seed uint64) []graphT {
	rng := newRand(seed, workload)
	graphs := make([]graphT, rtTemplates)
	var kinds [100]uint8
	for i := range graphs {
		g := &graphs[i]
		if workload == wlDeps {
			g.shape = shapeDeps16
		} else {
			// Exactly 50/25/25 in every hundred, so tasks per graph (and
			// with it every per-task number) does not wander with the seed.
			if i%100 == 0 {
				kinds = deal(rng, []int{shapeBatch64: 50, shapeFan16: 25, shapeSpawn16: 25})
			}
			g.shape = kinds[i%100]
		}
		// Four distinct keys, whether or not the shape uses them all, so
		// the stream position does not depend on the shape drawn.
		for k := range g.keys {
		draw:
			for {
				g.keys[k] = uint16(rng.IntN(rtKeys))
				for j := 0; j < k; j++ {
					if g.keys[j] == g.keys[k] {
						continue draw
					}
				}
				break
			}
		}
	}
	return graphs
}

// refPreds is the reference dependence analysis the oracles and the trace
// are built on: for tasks in program order with (key, mode) annotations it
// returns each task's predecessors — the last writer of every key it
// touches, plus, for a write, every reader since that writer.
func refPreds(tasks [][]shapeDep) [][]int {
	lastWriter := map[uint8]int{}
	readers := map[uint8][]int{}
	preds := make([][]int, len(tasks))
	for i, deps := range tasks {
		seen := map[int]bool{}
		add := func(p int) {
			if p != i && !seen[p] {
				seen[p] = true
				preds[i] = append(preds[i], p)
			}
		}
		for _, d := range deps {
			if w, ok := lastWriter[d.slot]; ok {
				add(w)
			}
			if d.mode == runtime.ModeIn {
				readers[d.slot] = append(readers[d.slot], i)
				continue
			}
			for _, r := range readers[d.slot] {
				add(r)
			}
			readers[d.slot] = nil
			lastWriter[d.slot] = i
		}
		sort.Ints(preds[i])
	}
	return preds
}

// ---- service jobs ----

const (
	jobDiamond8 = iota
	jobChain4
	jobWide32
)

var jobKindNames = [...]string{"diamond8", "chain4", "wide32"}

var (
	tenantNames = [...]string{"a", "b", "c", "d"}
	laneNames   = [...]string{"control", "data", "telemetry"}
)

// Amount layout of the harness ops in a traced run (bench.busy, and
// bench.sleep in place of the built-in sleep): the low bits carry the real
// amount, the rest say which task of which job is running so the op can
// stamp its start and end from outside the server.
const (
	amountBits = 24
	taskBits   = 8
)

// jobT is one generated job of a service workload.
type jobT struct {
	kind   uint8
	tenant uint8
	lane   uint8
	// armed: every task carries deadline_ms:1000 and retry{max:2}; the
	// fault path is armed and never fires.
	armed bool
	// fail: the last task is the fail op with retry{max:2}; the job must
	// end failed with attempts = tasks+2.
	fail  bool
	tasks int
	// due is the scheduled send time, ns from the start of the window.
	due  int64
	body []byte
}

// serveSpec is what distinguishes the two service workloads.
type serveSpec struct {
	// rate is the open loop's arrival rate, jobs per second.
	rate int
	// kinds, tenants: how many of every 100 jobs get each value; lanes:
	// the same for every 100 jobs of one tenant.
	kinds       [3]int
	tenants     [4]int
	lanes       [4][3]int
	armed, fail int
	// op is every task's body (busy or sleep, see opName) and amounts its
	// length in ns, per job kind.
	op      string
	amounts [3]int64
	cfg     serve.Config
	sloNs   int64
}

// opName is the op the tasks name on the wire. busy is the harness's own
// (bench.busy; the server has no body that lasts a wall-clock time); sleep
// is the server's built-in, which a traced run swaps for the harness's
// bench.sleep so that it can be stamped.
func (s serveSpec) opName(traced bool) string {
	if s.op == "busy" || traced {
		return "bench." + s.op
	}
	return s.op
}

// openJobBodyNs is the body time every serve-open job carries, whatever its
// shape: 8 × 400 µs, 4 × 800 µs or 32 × 100 µs. About six times what the
// service and the wake-ups under it add to a job, so that a host regime
// which doubles their share moves a job's latency by about a seventh (see
// README, "Sizing and spread"); the same for every kind, so that no
// percentile sits on the border between two kinds of job.
const openJobBodyNs = 3_200_000

func serveSpecOf(workload string, workers int) serveSpec {
	if workload == wlOverload {
		// Default quota, queue and watermarks: the point is the shedding.
		return serveSpec{
			rate:    175 * workers,
			kinds:   [3]int{100, 0, 0},
			tenants: [4]int{55, 15, 15, 15},
			// The greedy tenant floods best-effort work; the light tenants
			// do interactive work. See README, "serve-overload".
			lanes: [4][3]int{{10, 0, 90}, {10, 90, 0}, {10, 90, 0}, {10, 90, 0}},
			op:    "sleep", amounts: [3]int64{500_000, 500_000, 500_000},
			cfg:   serve.Config{Workers: workers},
			sloNs: 250e6,
		}
	}
	// Bodies are CPU-bound, so the pool gets one worker fewer than the
	// process has Ps: with every P in a body nothing polls the network (the
	// Go runtime looks at it from an idle P, or every 10 ms), and a request's
	// latency would be the rest of whatever the workers were doing.
	pool := max(1, workers-1)
	return serveSpec{
		// A sixth of what the pool's bodies alone could carry: four jobs
		// in five find the pool free, the 90th percentile waits for one.
		rate:    50 * pool,
		kinds:   [3]int{70, 20, 10},
		tenants: [4]int{25, 25, 25, 25},
		lanes:   [4][3]int{{10, 70, 20}, {10, 70, 20}, {10, 70, 20}, {10, 70, 20}},
		armed:   10, fail: 2,
		op: "busy", amounts: [3]int64{openJobBodyNs / 8, openJobBodyNs / 4, openJobBodyNs / 32},
		cfg:   serve.Config{Workers: pool, TenantQuota: 4096},
		sloNs: 20e6,
	}
}

// deal returns a shuffled block of 100 values in which value v appears
// counts[v] times (the rest are the last value), so every hundred graphs
// or jobs carry the exact mix and the offered load does not wander with
// the seed.
func deal(rng *rand.Rand, counts []int) [100]uint8 {
	var block [100]uint8
	i := 0
	for v, c := range counts {
		for ; c > 0 && i < len(block); c-- {
			block[i] = uint8(v)
			i++
		}
	}
	for ; i < len(block); i++ {
		block[i] = uint8(len(counts) - 1)
	}
	rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
	return block
}

// genJobs generates n jobs of a service workload. With traced set the
// bodies name the harness ops and carry the job index in their amounts.
// Dues are left zero; see schedule.
func genJobs(workload string, seed uint64, workers, n int, traced bool) []jobT {
	spec := serveSpecOf(workload, workers)
	rng := newRand(seed, workload)
	jobs := make([]jobT, n)
	var kinds, tenants, armed, fail [100]uint8
	var lanes [len(tenantNames)][100]uint8
	var sent [len(tenantNames)]int // jobs generated so far, per tenant
	for i := range jobs {
		if i%100 == 0 {
			kinds = deal(rng, spec.kinds[:])
			tenants = deal(rng, spec.tenants[:])
			armed = deal(rng, []int{spec.armed, 100 - spec.armed})
			fail = deal(rng, []int{spec.fail, 100 - spec.fail})
		}
		j := &jobs[i]
		j.kind, j.tenant = kinds[i%100], tenants[i%100]
		if sent[j.tenant]%100 == 0 {
			lanes[j.tenant] = deal(rng, spec.lanes[j.tenant][:])
		}
		j.lane = lanes[j.tenant][sent[j.tenant]%100]
		sent[j.tenant]++
		j.armed, j.fail = armed[i%100] == 0, fail[i%100] == 0
		req := jobRequest(spec, j, i, traced)
		j.tasks = len(req.Tasks)
		body, err := json.Marshal(req)
		if err != nil {
			panic(err) // a GraphRequest of strings and ints always marshals
		}
		j.body = body
	}
	return jobs
}

// jobRequest builds the wire graph of one job.
func jobRequest(spec serveSpec, j *jobT, index int, traced bool) serve.GraphRequest {
	var tasks []serve.TaskRequest
	dep := func(key, mode string) serve.DepRequest { return serve.DepRequest{Key: key, Mode: mode} }
	switch j.kind {
	case jobDiamond8:
		tasks = append(tasks, serve.TaskRequest{Deps: []serve.DepRequest{dep("a", "out")}})
		var joins []serve.DepRequest
		for m := 1; m <= 6; m++ {
			b := fmt.Sprintf("b%d", m)
			tasks = append(tasks, serve.TaskRequest{Deps: []serve.DepRequest{dep("a", "in"), dep(b, "out")}})
			joins = append(joins, dep(b, "in"))
		}
		tasks = append(tasks, serve.TaskRequest{Deps: joins})
	case jobChain4:
		for t := 0; t < 4; t++ {
			tasks = append(tasks, serve.TaskRequest{Deps: []serve.DepRequest{dep("k", "inout")}})
		}
	default:
		tasks = make([]serve.TaskRequest, 32)
	}
	for t := range tasks {
		tr := &tasks[t]
		tr.Op, tr.Amount = spec.opName(traced), spec.amounts[j.kind]
		if traced {
			tr.Amount |= int64(t)<<amountBits | int64(index)<<(amountBits+taskBits)
		}
		if j.armed {
			tr.DeadlineMS = 1000
			tr.Retry = &serve.RetrySpec{Max: 2}
		}
	}
	if j.fail {
		last := &tasks[len(tasks)-1]
		last.Op, last.Amount = "fail", 0
		last.Retry = &serve.RetrySpec{Max: 2}
	}
	return serve.GraphRequest{Lane: laneNames[j.lane], Tasks: tasks}
}

// schedule stamps the jobs' due times: each of the window's slices gets an
// equal share of the jobs at independent uniform instants, which is a
// Poisson process conditioned on its count — bursts and gaps as in an open
// loop, the same offered load in every slice and for every seed.
func schedule(jobs []jobT, seed uint64, workload string, windowNs int64, slices int) {
	rng := rand.New(rand.NewPCG(seed^0x9e3779b97f4a7c15, uint64(len(workload))))
	sliceNs := windowNs / int64(slices)
	for s := 0; s < slices; s++ {
		lo, hi := len(jobs)*s/slices, len(jobs)*(s+1)/slices
		dues := make([]int64, hi-lo)
		for i := range dues {
			dues[i] = int64(s)*sliceNs + rng.Int64N(sliceNs)
		}
		sort.Slice(dues, func(a, b int) bool { return dues[a] < dues[b] })
		for i, d := range dues {
			jobs[lo+i].due = d
		}
	}
}
