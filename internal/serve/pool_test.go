package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// normalised returns g with empty Tasks/Deps slices turned nil — the one
// difference a recycled request is allowed to show against a fresh one.
func normalised(g *GraphRequest) GraphRequest {
	out := *g
	out.Tasks = nil
	for _, tr := range g.Tasks {
		if len(tr.Deps) == 0 {
			tr.Deps = nil
		}
		out.Tasks = append(out.Tasks, tr)
	}
	return out
}

// checkRecycledDecode is the pooled-request hygiene property: decoding b
// into a request that previously held a and was scrubbed must give exactly
// what decoding b into a zero request gives — same error, same fields.
func checkRecycledDecode(t *testing.T, a, b []byte) {
	t.Helper()
	var scratch, fresh GraphRequest
	decode := func(body []byte, into *GraphRequest) error {
		return json.Unmarshal(body, into) // as handleSubmit does
	}
	_ = decode(a, &scratch) // a failed decode leaves residue too
	scratch.scrub(1 << 20)
	errScratch := decode(b, &scratch)
	errFresh := decode(b, &fresh)
	if fmt.Sprint(errScratch) != fmt.Sprint(errFresh) {
		t.Fatalf("decode errors differ: recycled %v, fresh %v\nA: %s\nB: %s", errScratch, errFresh, a, b)
	}
	if got, want := normalised(&scratch), normalised(&fresh); !reflect.DeepEqual(got, want) {
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		t.Fatalf("recycled request differs from a fresh one\nA: %s\nB: %s\nrecycled: %s\nfresh:    %s", a, b, gj, wj)
	}
}

// randomBody writes one valid wire body with every optional member
// independently present or absent, including the two spellings of "no
// deps" and an empty task list.
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
	return []byte(sb.String())
}

// TestPooledRequestHygiene runs the property over seeded random pairs of
// valid bodies: no field of A — a retry policy, a deadline, a dep list —
// may survive into B through the recycled arrays.
func TestPooledRequestHygiene(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		checkRecycledDecode(t, randomBody(rng), randomBody(rng))
	}
}

// hygieneSeeds are the fuzz target's corpus: the shapes the serve tests
// post, plus the decoder quirks the scrub rule exists for.
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
	{`{"tasks":[{"op":"noop","name":"n"}`, `{"tenant":"t"}`},
}

// FuzzPooledRequestDecode is the same property under go test -fuzz, over
// arbitrary byte pairs: whatever the first body left behind, the second
// decodes as into a fresh request.
func FuzzPooledRequestDecode(f *testing.F) {
	for _, s := range hygieneSeeds {
		f.Add([]byte(s[0]), []byte(s[1]))
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		checkRecycledDecode(t, a, b)
	})
}

// TestScrubBoundsWhatItKeeps: the arrays survive a scrub, zeroed over
// their whole capacity, unless they are larger than a request may be.
func TestScrubBoundsWhatItKeeps(t *testing.T) {
	var g GraphRequest
	g.Tasks = make([]TaskRequest, 2, 8)
	g.Tasks[:8][5] = TaskRequest{Op: "stale", Retry: &RetrySpec{Max: 3}, Deps: []DepRequest{{Key: "k"}}}
	g.Tasks[0].Deps = make([]DepRequest, maxPooledDeps+1)
	g.Tasks[1].Deps = []DepRequest{{Key: "a", Mode: "in"}, {Key: "b", Mode: "out"}}
	g.scrub(8)
	if len(g.Tasks) != 0 || cap(g.Tasks) != 8 {
		t.Fatalf("scrub left len %d cap %d, want 0/8", len(g.Tasks), cap(g.Tasks))
	}
	for i, tr := range g.Tasks[:8] {
		deps := tr.Deps[:cap(tr.Deps)]
		tr.Deps = nil
		if !reflect.DeepEqual(tr, TaskRequest{}) {
			t.Errorf("slot %d not zeroed: %+v", i, tr)
		}
		for _, d := range deps {
			if d != (DepRequest{}) {
				t.Errorf("slot %d keeps dep %+v", i, d)
			}
		}
	}
	if c := cap(g.Tasks[:8][0].Deps); c != 0 {
		t.Errorf("a %d-dep array was kept (cap %d), bound is %d", maxPooledDeps+1, c, maxPooledDeps)
	}
	if c := cap(g.Tasks[:8][1].Deps); c != 2 {
		t.Errorf("a 2-dep array was dropped (cap %d)", c)
	}
	g.Tasks = make([]TaskRequest, 9)
	g.scrub(8)
	if cap(g.Tasks) != 0 {
		t.Errorf("a 9-task array was kept past a limit of 8 (cap %d)", cap(g.Tasks))
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
