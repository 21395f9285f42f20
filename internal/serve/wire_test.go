package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/runtime"
)

// testServer is a server without a pool or a dispatcher: enough to check
// and lower requests on the test's own goroutine.
func testServer() *Server {
	return &Server{cfg: Config{}.withDefaults(), ops: builtinOps(), intern: make(map[string]*keyCell)}
}

// recycle empties sb as putSubmit does, but keeps it out of the pool, so
// that the next body goes through the same buffer.
func recycle(s *Server, sb *submitBuf) {
	sb.g.reset(s.cfg.MaxGraphTasks)
	sb.tenant = ""
}

// parentCheck is the reference check is held to: the handler's checks as
// they ran when it decoded every body with json.Unmarshal into a fresh
// GraphRequest. It returns that request, or the 400 message.
func parentCheck(s *Server, body []byte, tenant string) (*GraphRequest, error) {
	var g GraphRequest
	if err := json.Unmarshal(body, &g); err != nil {
		return nil, errors.New("bad request body: " + err.Error())
	}
	if tenant == "" {
		tenant = g.Tenant
	}
	if tenant == "" {
		return nil, errors.New("missing tenant (X-RAA-Tenant header or tenant field)")
	}
	if _, err := parseLane([]byte(g.Lane)); err != nil {
		return nil, err
	}
	if _, err := parseOnFailure([]byte(g.OnFailure)); err != nil {
		return nil, err
	}
	return &g, s.validateGraph(wireOf(&g))
}

// wireOf is g in the form the server checks and lowers.
func wireOf(g *GraphRequest) *wireGraph {
	w := &wireGraph{Tenant: wireStr(g.Tenant), Lane: wireStr(g.Lane), OnFailure: wireStr(g.OnFailure)}
	for _, t := range g.Tasks {
		wt := wireTask{Name: wireStr(t.Name), Op: wireStr(t.Op), Amount: t.Amount, Retry: t.Retry, DeadlineMS: t.DeadlineMS}
		for _, d := range t.Deps {
			wt.Deps = append(wt.Deps, wireDep{Key: wireStr(d.Key), Mode: wireStr(d.Mode)})
		}
		w.Tasks = append(w.Tasks, wt)
	}
	return w
}

// loweredTask is what lower made of one task, in a form DeepEqual
// compares: the op its argument was built from and the amount the argument
// carries, the spec fields, and each dependence key as the index of its
// first use in the graph.
type loweredTask struct {
	Op       string
	Amount   int64
	Name     string
	Retry    runtime.RetryPolicy
	Deadline time.Duration
	Deps     []loweredDep
}

type loweredDep struct {
	Key  int
	Mode runtime.AccessMode
}

// lowered lowers g as the dispatcher launches a job, through s's intern
// table and slabs, and clears the slabs as launch does.
func lowered(s *Server, g *wireGraph) []loweredTask {
	specs := s.lower(&job{}, g, 0)
	first := map[any]int{}
	out := make([]loweredTask, len(specs))
	for i, sp := range specs {
		out[i] = loweredTask{Op: string(g.Tasks[i].Op), Amount: sp.Arg.(*taskArg).amount, Name: sp.Name, Retry: sp.Retry, Deadline: sp.Deadline}
		for _, d := range sp.Deps {
			if _, ok := first[d.Key]; !ok {
				first[d.Key] = len(first)
			}
			out[i].Deps = append(out[i].Deps, loweredDep{first[d.Key], d.Mode})
		}
	}
	clear(s.specs)
	clear(s.deps)
	return out
}

// checkSubmitDecode is the decode-parity property. Through sb, whatever
// request it last held, body is refused with exactly the message the
// parent's checks give it, or accepted when they accept it; and then it
// carries the same tenant, lane and failure policy and lowers — through
// s's intern table and slabs, as the dispatcher's next launch would — to
// the same tasks as the request json.Unmarshal makes of it.
func checkSubmitDecode(t *testing.T, s *Server, sb *submitBuf, body []byte) {
	t.Helper()
	recycle(s, sb)
	err := s.check(sb, bytes.NewReader(body), "h")
	want, wantErr := parentCheck(s, body, "h")
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("check refuses with %v, the parent's checks with %v\nbody: %q", err, wantErr, body)
	}
	if err != nil {
		return
	}
	lane, _ := parseLane([]byte(want.Lane))
	failFast, _ := parseOnFailure([]byte(want.OnFailure))
	if string(sb.g.Tenant) != want.Tenant || sb.lane != lane || sb.failFast != failFast {
		t.Fatalf("decoded tenant %q lane %v fail-fast %v, want %q %v %v\nbody: %q",
			sb.g.Tenant, sb.lane, sb.failFast, want.Tenant, lane, failFast, body)
	}
	if got, exp := lowered(s, &sb.g), lowered(testServer(), wireOf(want)); !reflect.DeepEqual(got, exp) {
		t.Fatalf("lowers to\n%+v\nwant\n%+v\nbody: %q", got, exp, body)
	}
	if len(s.intern) != 0 { // its names are the request's bytes
		t.Fatalf("lower left %d key names in its table", len(s.intern))
	}
}

// randomBody writes one valid wire body with every optional member
// independently present or absent, including the two spellings of "no
// deps", an empty task list and trailing white space.
func randomBody(rng *rand.Rand) []byte {
	var sb strings.Builder
	sb.WriteString(`{"tenant":"t"`)
	if rng.Intn(2) == 0 {
		fmt.Fprintf(&sb, `,"lane":%q`, []string{"control", "data", "telemetry"}[rng.Intn(3)])
	}
	if rng.Intn(4) == 0 {
		sb.WriteString(`,"on_failure":"fail_fast"`)
	}
	sb.WriteString(`,"tasks":[`)
	for i, n := 0, rng.Intn(7); i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"op":%q`, []string{"noop", "spin", "sleep"}[rng.Intn(3)])
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&sb, `,"name":"n%d"`, rng.Intn(100))
		}
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&sb, `,"amount":%d`, rng.Intn(1000))
		}
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&sb, `,"cost":%d.5`, rng.Intn(10))
		}
		if rng.Intn(3) == 0 {
			fmt.Fprintf(&sb, `,"retry":{"max":%d`, 1+rng.Intn(MaxRetryBudget))
			if rng.Intn(2) == 0 {
				fmt.Fprintf(&sb, `,"backoff_ms":%d,"max_backoff_ms":%d`, 1+rng.Intn(9), 10+rng.Intn(90))
			}
			sb.WriteByte('}')
		}
		if rng.Intn(3) == 0 {
			fmt.Fprintf(&sb, `,"deadline_ms":%d`, 1+rng.Intn(1000))
		}
		switch rng.Intn(4) {
		case 0: // absent
		case 1:
			sb.WriteString(`,"deps":null`)
		default:
			sb.WriteString(`,"deps":[`)
			for d, nd := 0, rng.Intn(5); d < nd; d++ {
				if d > 0 {
					sb.WriteByte(',')
				}
				fmt.Fprintf(&sb, `{"key":"k%d","mode":%q}`, rng.Intn(6), []string{"in", "out", "inout"}[rng.Intn(3)])
			}
			sb.WriteByte(']')
		}
		sb.WriteByte('}')
	}
	sb.WriteString(`]}`)
	if rng.Intn(4) == 0 {
		sb.WriteString(" \n")
	}
	return []byte(sb.String())
}

// TestSubmitDecodeParity runs the property over a seeded stream of bodies
// through one submit buffer and one server: valid bodies, and some cut
// short or followed by data, so the buffer keeps its decoder across some
// and has it dropped by others. No field of one request — a retry policy,
// a deadline, a dep list, a key's cell — may survive into the next.
func TestSubmitDecodeParity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s, sb := testServer(), new(submitBuf)
	for i := 0; i < 2000; i++ {
		body := randomBody(rng)
		switch rng.Intn(10) {
		case 0:
			body = body[:rng.Intn(len(body))]
		case 1:
			body = append(body, " x"...)
		}
		checkSubmitDecode(t, s, sb, body)
	}
}

// TestLowerCellsPastTheRecord: a job's first key cells are its record's,
// and a graph with more distinct keys than those goes on into a slab. Every
// name is one cell wherever it is used, and no two names share a cell.
func TestLowerCellsPastTheRecord(t *testing.T) {
	s := testServer()
	var g GraphRequest
	const keys = 2*jobCells + 3
	for i := 0; i < keys; i++ { // task i writes key i and reads key i/2
		g.Tasks = append(g.Tasks, TaskRequest{Op: "noop", Deps: []DepRequest{
			{Key: fmt.Sprintf("k%d", i), Mode: "out"}, {Key: fmt.Sprintf("k%d", i/2), Mode: "in"}}})
	}
	j := &job{}
	specs := s.lower(j, wireOf(&g), 0)
	defer func() { clear(s.specs); clear(s.deps) }()
	cellOf, nameOf := map[string]any{}, map[any]string{}
	for i, sp := range specs {
		for d, dep := range sp.Deps {
			name := g.Tasks[i].Deps[d].Key
			if c, ok := cellOf[name]; ok && c != dep.Key {
				t.Fatalf("task %d names %s by a second cell", i, name)
			}
			if other, ok := nameOf[dep.Key]; ok && other != name {
				t.Fatalf("%s and %s share a cell", name, other)
			}
			cellOf[name], nameOf[dep.Key] = dep.Key, name
		}
	}
	inRecord := 0
	for k := range j.cells {
		if _, ok := nameOf[&j.cells[k]]; ok {
			inRecord++
		}
	}
	if len(cellOf) != keys || inRecord != jobCells {
		t.Fatalf("%d names lowered to %d cells, %d of them in the record; want %d, %d", keys, len(cellOf), inRecord, keys, jobCells)
	}
}

// hygieneSeeds are the fuzz target's corpus, pairs of bodies (A, B): the
// shapes the serve tests post, the decoder quirks the reset rule exists
// for, and the string, type and framing cases the wire form must word as
// encoding/json words them.
var hygieneSeeds = [][2]string{
	{`{"tasks":[{"op":"record","amount":1,"deps":[{"key":"x","mode":"out"}]},{"op":"record","amount":2,"deps":[{"key":"x","mode":"inout"}]}]}`,
		`{"tasks":[{"op":"noop"}]}`},
	{`{"lane":"control","tasks":[{"name":"gate","op":"gate","amount":9}]}`,
		`{"tasks":[{"op":"noop"},{"op":"noop"},{"op":"noop"}]}`},
	{`{"tasks":[{"op":"noop","retry":{"max":16,"backoff_ms":5},"deadline_ms":1000}]}`,
		`{"tasks":[{"op":"noop","retry":{}}]}`},
	{`{"on_failure":"fail_fast","tasks":[{"op":"fail"},{"op":"noop","deps":[{"key":"a","mode":"in"},{"key":"b","mode":"in"}]}]}`,
		`{"tasks":[{"op":"noop"},{"op":"noop","deps":[{"key":"c","mode":"out"}]}]}`},
	// A repeated member decodes into the same array twice and leaves
	// elements beyond the final length.
	{`{"tasks":[{"op":"a","deadline_ms":7},{"op":"b","deadline_ms":8},{"op":"c","deadline_ms":9}],"tasks":[{"op":"d"}]}`,
		`{"tasks":[{"op":"x"},{"op":"y"},{"op":"z"}]}`},
	{`{"tasks":[{"op":"noop","deps":[{"key":"k","mode":"in"}]}]}`, `{"tasks":[{"op":"noop","deps":null}]}`},
	{`{"tasks":[{"op":"noop","cost":2.5}]}`, `{"tasks":[]}`},
	// "cost" is no member of the wire form: whatever it holds, even a
	// string, is skipped, and the task lowers as if it were absent.
	{`{"tasks":[{"op":"noop"}]}`, `{"tasks":[{"op":"noop","cost":"x"}]}`},
	{`{"tasks":[{"op":"noop","name":"n"}`, `{"tenant":"t"}`},
	// Escaped and non-ASCII strings: one key spelled two ways is one key,
	// and an op that is not ASCII, or not UTF-8, is named as a string
	// field would name it.
	{`{"tasks":[{"op":"noop","deps":[{"key":"ké","mode":"out"}]}]}`,
		`{"tasks":[{"op":"no\u006fp","deps":[{"key":"k\u00e9","mode":"\u006fut"}]},{"op":"noop","deps":[{"key":"ké","mode":"in"},{"key":"k\"","mode":"in"}]}]}`},
	{`{"tasks":[{"op":"noop","name":"a\tb"}]}`, `{"tasks":[{"op":"nöop"}]}`},
	{`{"tasks":[{"op":"noop"}]}`, "{\"tasks\":[{\"op\":\"\xff\"}]}"},
	// null clears a retry policy and leaves a string as it was.
	{`{"tasks":[{"op":"noop","retry":{"max":3,"backoff_ms":2}}]}`,
		`{"tasks":[{"op":"noop","retry":{"max":3,"backoff_ms":2},"retry":null,"name":"n","name":null}]}`},
	// A number, an array or an object where a string goes.
	{`{"tasks":[{"op":"noop"}]}`, `{"tasks":[{"op":5}]}`},
	{`{"lane":"control","tasks":[{"op":"noop"}]}`, `{"lane":1,"tasks":[{"op":"noop"}]}`},
	{`{"tasks":[{"op":"noop","deps":[{"key":"k","mode":"in"}]}]}`, `{"tasks":[{"op":"noop","deps":[{"key":{},"mode":["in"]}]}]}`},
	// An empty body, and data after a value, after a clean body that ended
	// in white space.
	{"{\"tasks\":[{\"op\":\"noop\"}]}\n\t ", ``},
	{`{"tasks":[{"op":"noop"}]} `, `{"tasks":[{"op":"noop"}]}}`},
	{`{"tasks":[{"op":"noop"}]}`, `{"tasks":[{"op":"noop"}]} x`},
	// Member names match as encoding/json matches them, case folded.
	{`{"tasks":[{"op":"noop"}]}`, `{"TASKS":[{"OP":"noop","Deps":[{"KEY":"a","MODE":"out"}],"Retry":{"MAX":2}}],"On_Failure":"fail_fast"}`},
}

// FuzzSubmitDecode is the property over arbitrary pairs of bodies: B goes
// through a submit buffer that last held A — decoded, checked and, if A
// was admissible, lowered.
func FuzzSubmitDecode(f *testing.F) {
	for _, s := range hygieneSeeds {
		f.Add([]byte(s[0]), []byte(s[1]))
	}
	s := testServer()
	f.Fuzz(func(t *testing.T, a, b []byte) {
		sb := new(submitBuf)
		if s.check(sb, bytes.NewReader(a), "h") == nil {
			lowered(s, &sb.g)
		}
		checkSubmitDecode(t, s, sb, b)
	})
}

// TestResetBoundsWhatItKeeps: a graph's arrays survive a reset, every
// element cleared over the whole capacity — no string, retry policy or
// dependence of an earlier request left in any slot — unless they are
// larger than the next request should pay to keep.
func TestResetBoundsWhatItKeeps(t *testing.T) {
	var g wireGraph
	g.Tenant, g.Lane = wireStr("t"), wireStr("data")
	g.Tasks = make([]wireTask, 2, 8)
	g.Tasks[:8][5] = wireTask{Op: wireStr("stale"), Amount: 3, Retry: &RetrySpec{Max: 3}, Deps: []wireDep{{Key: wireStr("k")}}}
	g.Tasks[0].Deps = make([]wireDep, maxPooledDeps+1)
	g.Tasks[1].Deps = []wireDep{{Key: wireStr("a"), Mode: wireStr("in")}, {Key: wireStr("b"), Mode: wireStr("out")}}
	g.reset(8)
	if len(g.Tasks) != 0 || cap(g.Tasks) != 8 {
		t.Fatalf("reset left len %d cap %d, want 0/8", len(g.Tasks), cap(g.Tasks))
	}
	if g.Tenant != nil || g.Lane != nil {
		t.Errorf("reset kept tenant %q, lane %q", g.Tenant, g.Lane)
	}
	for i, tr := range g.Tasks[:8] {
		deps := tr.Deps[:cap(tr.Deps)]
		tr.Deps = nil
		if !reflect.DeepEqual(tr, wireTask{}) {
			t.Errorf("slot %d not cleared: %+v", i, tr)
		}
		for k, d := range deps {
			if d.Key != nil || d.Mode != nil {
				t.Errorf("slot %d keeps dep %d %q/%q", i, k, d.Key, d.Mode)
			}
		}
	}
	if c := cap(g.Tasks[:8][0].Deps); c != 0 {
		t.Errorf("a %d-dep array was kept (cap %d), bound is %d", maxPooledDeps+1, c, maxPooledDeps)
	}
	if c := cap(g.Tasks[:8][1].Deps); c != 2 {
		t.Errorf("a 2-dep array was dropped (cap %d)", c)
	}
	g.Tasks = make([]wireTask, 9)
	g.reset(8)
	if cap(g.Tasks) != 0 {
		t.Errorf("a 9-task array was kept past a limit of 8 (cap %d)", cap(g.Tasks))
	}
}

// TestRepliesByteIdentical pins the wire contract of every reply the
// handlers write — 202, 503 with Retry-After and without, 429, 400, 200
// status and 404 — against what each handler wrote when it set
// Content-Type through Header().Set and rendered its body with a
// json.NewEncoder of its own: status, headers and body bytes.
func TestRepliesByteIdentical(t *testing.T) {
	gate, entered := make(chan struct{}), make(chan struct{}, 2) // one send per gated task
	held := gateOp(gate)
	s, err := New(Config{Workers: 1, TenantQuota: 2, Ops: map[string]Op{"gate": func(ctx context.Context, n int64) error {
		entered <- struct{}{}
		return held(ctx, n)
	}}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer close(gate)
	do := func(method, target, body string) *httptest.ResponseRecorder {
		r := httptest.NewRequest(method, target, strings.NewReader(body))
		r.Header.Set("X-RAA-Tenant", "t0")
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		return w
	}
	expect := func(name string, w *httptest.ResponseRecorder, status int, extra http.Header, v any) {
		t.Helper()
		header := http.Header{}
		header.Set("Content-Type", "application/json")
		for k, vs := range extra {
			header[k] = vs
		}
		var body bytes.Buffer
		if err := json.NewEncoder(&body).Encode(v); err != nil {
			t.Fatal(err)
		}
		res := w.Result()
		if res.StatusCode != status || !reflect.DeepEqual(res.Header, header) || w.Body.String() != body.String() {
			t.Errorf("%s:\n got %d %v %q\nwant %d %v %q", name, res.StatusCode, res.Header, w.Body, status, header, body.String())
		}
	}
	const graph = `{"tasks":[{"op":"gate"},{"op":"gate"}]}`
	expect("202", do("POST", "/v1/graphs", graph), http.StatusAccepted, nil, SubmitResponse{Job: "j-1", Status: "queued"})
	expect("503 deferred", do("POST", "/v1/graphs", `{"tasks":[{"op":"noop"}]}`), http.StatusServiceUnavailable,
		http.Header{"Retry-After": {"1"}}, SubmitResponse{Status: "deferred", Reason: "quota", RetryAfterMS: 1000})
	expect("429", do("POST", "/v1/graphs", `{"tasks":[{"op":"noop"},{"op":"noop"},{"op":"noop"}]}`), http.StatusTooManyRequests,
		nil, SubmitResponse{Status: "rejected", Reason: "graph-exceeds-quota"})
	expect("400 body", do("POST", "/v1/graphs", graph+" x"), http.StatusBadRequest,
		nil, ErrorResponse{Error: "bad request body: invalid character 'x' after top-level value"})
	expect("400 graph", do("POST", "/v1/graphs", `{"tasks":[{"op":"gate","deps":[{"key":"k","mode":"rw"}]}]}`), http.StatusBadRequest,
		nil, ErrorResponse{Error: `task 0: dep 0 has unknown mode "rw" (want in, out, or inout)`})
	j := jobRecord(s, 1)
	<-entered // the one worker is held at the first gate from here on
	for _, target := range []string{"/v1/jobs/j-1", "/v1/jobs/j-1?wait=1ms"} {
		w := do("GET", target, "")
		s.mu.Lock()
		st := s.statusLocked(j) // the job is held: the status is still the one written
		s.mu.Unlock()
		expect("200 "+target, w, http.StatusOK, nil, st)
	}
	expect("400 wait", do("GET", "/v1/jobs/j-1?wait=soon", ""), http.StatusBadRequest, nil, ErrorResponse{Error: "bad wait duration"})
	expect("404", do("GET", "/v1/jobs/j-9", ""), http.StatusNotFound, nil, ErrorResponse{Error: "unknown job"})
	expect("404 cancel", do("POST", "/v1/jobs/j-9/cancel", ""), http.StatusNotFound, nil, ErrorResponse{Error: "unknown job"})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Drain(ctx) // draining from here on; the gated job keeps the drain from finishing
	expect("503 draining", do("POST", "/v1/graphs", graph), http.StatusServiceUnavailable,
		nil, SubmitResponse{Status: "rejected", Reason: "draining"})
	if !reflect.DeepEqual(jsonContentType, []string{"application/json"}) {
		t.Errorf("the shared Content-Type value now reads %q", jsonContentType)
	}
}

// TestWaitQueryParity: the long-poll reads its wait as url.ParseQuery
// would have, escapes, repeats and malformed pairs included.
func TestWaitQueryParity(t *testing.T) {
	for _, raw := range []string{
		"", "wait=500ms", "wait=2s&x=1", "x=1&wait=3ms",
		"wait=1%30ms",           // an escaped value
		"w%61it=2s",             // an escaped key
		"wait=1s&wait=2s",       // a repeated key: the first
		"wait=1+s", "wait=+1ms", // + is a space
		"wait=%zz&wait=5ms", "%zz=1&wait=6ms", "wait=1%2", // a malformed escape drops its pair
		"wait", "wait&wait=7ms", "wait=&wait=8ms", // no =: an empty value
		"x=1;wait=9ms", "wait=10ms;", "a=1&&wait=11ms", "WAIT=12ms",
	} {
		vals, _ := url.ParseQuery(raw)
		if got, want := queryValue(raw, "wait"), vals.Get("wait"); got != want {
			t.Errorf("queryValue(%q) = %q, url.ParseQuery says %q", raw, got, want)
		}
	}
}

// TestPooledSubmitHoldsNoRequest: a submit buffer goes back to the pool
// holding nothing of the request it served — no graph, so no string that
// points into a decoder's buffer, and no tenant — whether the handler
// refused the request or the dispatcher launched it. A body too large to
// pool drops its decoder, so with the graph gone nothing pooled holds the
// buffer that body was decoded from. (sync.Pool may drop what it is given,
// so finding nothing proves less than finding something would; the direct
// putSubmit on this goroutine is the one most likely to come back.)
func TestPooledSubmitHoldsNoRequest(t *testing.T) {
	s, err := New(Config{Workers: 1, MaxBodyBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	big := `{"tenant":"` + strings.Repeat("x", 2*maxPooledBody) + `","tasks":[{"op":"noop","deps":[{"key":"k","mode":"out"}]}]}`
	// Handed back by launch, then by the refusing handler.
	runAdmittedJob(t, s, big)
	post(s, "t0", `{"tasks":[{"op":"noop","name":"n"}]} x`)
	sb := new(submitBuf)
	if err := s.check(sb, strings.NewReader(big), ""); err != nil || sb.dec != nil {
		t.Fatalf("a %d-byte body: check says %v, decoder kept: %v", len(big), err, sb.dec != nil)
	}
	s.putSubmit(sb)
	for i := 0; i < 8; i++ {
		sb := submitPool.Get().(*submitBuf)
		g := sb.g
		held := sb.tenant != "" || g.Tenant != nil || g.Lane != nil || g.OnFailure != nil || len(g.Tasks) != 0 || sb.rd.Size() != 0
		for _, tr := range g.Tasks[:cap(g.Tasks)] {
			for _, d := range tr.Deps[:cap(tr.Deps)] {
				held = held || d.Key != nil || d.Mode != nil
			}
			tr.Deps = nil
			held = held || !reflect.DeepEqual(tr, wireTask{})
		}
		if held {
			t.Fatalf("a pooled submit buffer holds a request: tenant %q, body tenant of %d bytes, %d tasks", sb.tenant, len(g.Tenant), len(g.Tasks))
		}
	}
}

// TestSubmitRejectsTrailingData pins what reading the whole body and
// decoding it once changed and what it kept. Changed: anything after the
// top-level value is a 400 (Decoder.Decode stopped at the closing brace
// and never looked). Kept: a body over MaxBodyBytes is a 400 "bad request
// body", not a truncated graph; and a well-formed body still runs after
// either. A body buffer that had to grow past maxPooledBody is dropped
// rather than pooled — the maxPooledDeps rule.
func TestSubmitRejectsTrailingData(t *testing.T) {
	s, err := New(Config{Workers: 1, MaxBodyBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const good = `{"tasks":[{"op":"noop"}]}`
	pad := func(n int) string { return `{"tenant":"` + strings.Repeat("x", n) + `","tasks":[{"op":"noop"}]}` }
	for _, tc := range []struct{ name, body, want string }{
		{"trailing token", good + ` x`, "bad request body: invalid character 'x' after top-level value"},
		{"second value", good + good, "bad request body: invalid character '{' after top-level value"},
		{"over MaxBodyBytes", pad(256 << 10), "bad request body: http: request body too large"},
	} {
		w := post(s, "t0", tc.body)
		var reply ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil {
			t.Errorf("%s: reply %q: %v", tc.name, w.Body, err)
		}
		if w.Code != http.StatusBadRequest || reply.Error != tc.want {
			t.Errorf("%s:\n got %d %q\nwant 400 %q", tc.name, w.Code, reply.Error, tc.want)
		}
		runAdmittedJob(t, s, good+"\n ") // trailing white space is not data
	}

	// A large but legal body grows its buffer past the pooling bound; the
	// pool must not hand that buffer to anyone afterwards. (sync.Pool may
	// drop what it is given, so finding no large buffer proves less than
	// finding one would; putBody's own answer is checked first.)
	big := bytes.NewBufferString(pad(2 * maxPooledBody))
	if putBody(big); big.Len() == 0 {
		t.Errorf("putBody reset a %d-byte buffer: it was pooled, bound %d", big.Cap(), maxPooledBody)
	}
	runAdmittedJob(t, s, pad(2*maxPooledBody))
	for i := 0; i < 8; i++ {
		if b := getBody(); b.Cap() > maxPooledBody || b.Len() != 0 {
			t.Fatalf("the pool handed out a buffer of len %d cap %d, bound %d", b.Len(), b.Cap(), maxPooledBody)
		}
	}
}
