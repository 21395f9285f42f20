package main

import (
	"strings"
	"sync"
	"testing"
)

// The reference pass resolves against this module, so each failing input
// below is a stale reference one of the module's documents once carried.

var (
	moduleIndex     *index
	moduleIndexErr  error
	moduleIndexOnce sync.Once
)

func testIndex(t *testing.T) *index {
	t.Helper()
	moduleIndexOnce.Do(func() {
		root, err := moduleRoot(".")
		if err != nil {
			moduleIndexErr = err
			return
		}
		moduleIndex, moduleIndexErr = buildIndex(root)
	})
	if moduleIndexErr != nil {
		t.Fatal(moduleIndexErr)
	}
	return moduleIndex
}

type refCase struct {
	doc  string
	want string // a substring of the one problem reported; "" for none
}

func runRefCases(t *testing.T, cases []refCase) {
	ix := testIndex(t)
	for _, c := range cases {
		got := ix.checkDoc("doc.md", []byte(c.doc))
		switch {
		case c.want == "" && len(got) != 0:
			t.Errorf("%q: want no problem, got %q", c.doc, got)
		case c.want != "" && (len(got) != 1 || !strings.Contains(got[0], c.want)):
			t.Errorf("%q: want one problem naming %q, got %q", c.doc, c.want, got)
		}
	}
}

func TestTestNamesResolve(t *testing.T) {
	runRefCases(t, []refCase{
		{"the latch had `TestWatermarkHysteresis`.", "TestWatermarkHysteresis: no such test"},
		{"run `go test -run '^(TestSubmitPathAllocationFree|TestWatermarkHysteresis)$' ./internal/runtime/`", "doc.md:1: TestWatermarkHysteresis"},
		{"a `BenchmarkGone/admitted` sub-benchmark", "BenchmarkGone: no such test"},
		{"every `Test…` and `Benchmark*` is a pattern", ""},
		{"`TestSubmitPathAllocationFree`, `BenchmarkServeJobDiamond8/admitted` and `FuzzDecide`", ""},
		{"```\nTestWatermarkHysteresis in a fenced block is code\n```\n", ""},
	})
}

func TestIdentifiersResolve(t *testing.T) {
	runRefCases(t, []refCase{
		{"Retry backoffs ride the same waiters; `alarm.AfterFunc` went.", "alarm.AfterFunc: no package alarm declares AfterFunc"},
		{"deleted (PR 21) with\n`runtime.ResolveShards`", "doc.md:2: runtime.ResolveShards"},
		// Spelled in two pieces, so no Go file names the deleted method.
		{"the count `Runtime" + ".Shards` reports", "type Runtime has no member Shards"},
		{"`serve.Config.Scheduler`", "serve.Config.Scheduler"},
		{"a round is one `runtime.Gosched()`, and `context.AfterFunc` wakes the wait", ""},
		{"`runtime.CompleteAfter(ctx, d)`, `serve.Config.Workers`, `Stats.ParkedTasks`, `JobStatus.latency_ms`", ""},
		{"`stealScheduler.take`, `http.Header.Add`, `json.Decoder.Decode`", ""},
		{"metrics and files: `runtime.submit.ns_per_task`, `runtime.submit`, `serve.lane.*.shed_frac`, `submit.go`, `t.mu`", ""},
	})
}

// A bare lower-camelCase name must be declared somewhere in the module; the
// deleted names are spelled in two pieces so no Go file names them.
func TestUnexportedNamesResolve(t *testing.T) {
	runRefCases(t, []refCase{
		{"the chain hand-off went through `push" + "Owned`", "push" + "Owned: nothing in the module declares it"},
		{"a refill chunk of\n`injector" + "Grab` = 32", "doc.md:2: injector" + "Grab"},
		{"`stealScheduler`, `markReady`, `searchLeft`, `submitLocal` and `maxIdleWaiters`", ""},
		{"not one identifier: `push" + "Owned(t, w)`, `refill`, `go test`; a pattern: `push" + "Owned`…", ""},
	})
}

// A bare exported name of two or more capitalised words must be declared
// in the module or exported by the standard library; a name with an
// acronym word is not checked.
func TestExportedNamesResolve(t *testing.T) {
	runRefCases(t, []refCase{
		{"batches went through `Submit" + "Batch`", "Submit" + "Batch: nothing in the module or the standard library declares it"},
		{"the `Runtime" + "Shards` count", "doc.md:1: Runtime" + "Shards"},
		{"`SubmitBatchCtx`, `KindMarker`, `MemStats`, `ResponseWriter`, `ServeHTTP`, `VmHWM`, `FIFO`, `Submit" + "Batch`…", ""},
	})
}

func TestFileLinesResolve(t *testing.T) {
	runRefCases(t, []refCase{
		{"see `internal/alarm/alarm.go:100000`", "internal/alarm/alarm.go:100000: the file has"},
		{"see alarm.go:99999 for the cap", "alarm.go:99999: the file has"},
		{"`internal/serve/server.go:1–100000`", "server.go:100000: the file has"},
		{"`gone/nowhere.go:3`", "gone/nowhere.go: no such file"},
		{"`internal/runtime/submit.go:1`, `server.go:2`", ""},
	})
}
