package serve

import (
	"bytes"
	"cmp"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"unicode/utf8"
)

// wireStr is a JSON string as handleSubmit decodes it. A string without
// escapes, in valid UTF-8, is its own bytes, which it refers to where the
// decoder read them: its submitBuf's decoder does not decode again before
// the submitBuf is reset, so nothing is copied. Any other value goes
// through encoding/json's own string decode, so the bytes are the ones a
// string field would hold, a value that is not a string is refused as a
// string field refuses it, and null leaves it as it leaves a string.
type wireStr []byte

// UnmarshalJSON implements json.Unmarshaler.
func (s *wireStr) UnmarshalJSON(b []byte) error {
	if b[0] == '"' && bytes.IndexByte(b, '\\') < 0 && utf8.Valid(b) {
		*s = b[1 : len(b)-1]
		return nil
	}
	v := string(*s)
	err := json.Unmarshal(b, &v)
	*s = wireStr(v)
	return err
}

// wireGraph is GraphRequest as handleSubmit decodes it: the same members
// under the same names and Go types, strings as wireStr.
type wireGraph struct {
	Tenant    wireStr    `json:"tenant"`
	Lane      wireStr    `json:"lane"`
	OnFailure wireStr    `json:"on_failure"`
	Tasks     []wireTask `json:"tasks"`
}

// wireTask is TaskRequest's decoded form.
type wireTask struct {
	Name       wireStr    `json:"name"`
	Op         wireStr    `json:"op"`
	Amount     int64      `json:"amount"`
	Deps       []wireDep  `json:"deps"`
	Retry      *RetrySpec `json:"retry"`
	DeadlineMS int64      `json:"deadline_ms"`
}

// wireDep is DepRequest's decoded form.
type wireDep struct {
	Key  wireStr `json:"key"`
	Mode wireStr `json:"mode"`
}

// maxPooledDeps bounds the per-task Deps array a pooled graph keeps: one
// fat task must not make every later request pay for clearing it.
const maxPooledDeps = 64

// reset empties g for the next decode, keeping its arrays. It clears every
// element over the arrays' whole capacity: encoding/json decodes into the
// elements it finds without clearing them, and a repeated member can leave
// elements beyond the final length, so a member the next body omits would
// otherwise keep what an earlier request, possibly another tenant's, left
// in that slot. A Tasks array longer than maxTasks, the server's graph-size
// limit, is dropped instead: anything larger was refused, and is not worth
// clearing forever; so is a Deps array past maxPooledDeps.
func (g *wireGraph) reset(maxTasks int) {
	tasks := g.Tasks[:cap(g.Tasks)]
	if len(tasks) > maxTasks {
		tasks = nil
	}
	for i := range tasks {
		deps := tasks[i].Deps[:cap(tasks[i].Deps)]
		if len(deps) > maxPooledDeps {
			deps = nil
		}
		clear(deps)
		tasks[i] = wireTask{Deps: deps[:0]}
	}
	*g = wireGraph{Tasks: tasks[:0]}
}

// submitBuf is a POST's pooled decode state: a json.Decoder, the reader it
// reads bodies through, and the graph it decodes into. It belongs to the
// handler until admission and to the job until launch has lowered the
// graph, and then goes back to the pool.
type submitBuf struct {
	rd bytes.Reader
	// dec reads rd, body after body. Nil after an error, trailing data or a
	// body too large to pool: a decoder is kept only when it ended exactly
	// at the end of a body, so that it holds nothing of it, and its buffer
	// is one a pooled body may have.
	dec *json.Decoder
	g   wireGraph
	// What check made of the request: the submitting tenant, the lane and
	// the failure policy.
	tenant   string
	lane     Lane
	failFast bool
}

var submitPool = sync.Pool{New: func() any { return new(submitBuf) }}

// putSubmit empties sb and returns it to the pool. A pooled submitBuf holds
// nothing of the request it served: no graph, so no string pointing into a
// decoder's buffer, which a body too large to pool has just dropped, and
// no tenant.
func (s *Server) putSubmit(sb *submitBuf) {
	sb.g.reset(s.cfg.MaxGraphTasks)
	sb.tenant = ""
	submitPool.Put(sb)
}

// decode reads a whole body into a pooled buffer and decodes it into sb.g,
// which is empty: sb is new or from the pool. The body must be one
// JSON value followed by nothing but white space, as for json.Unmarshal;
// the decoder is handed the body without its trailing white space, so a
// clean decode reads it to the end. A refused body's error is
// json.Unmarshal's own on the same bytes, into a GraphRequest used for
// nothing else, so a 400 reads exactly as it did when the handler decoded
// that way (json.Unmarshal refuses whatever the decoder did not read to
// the end, too).
func (sb *submitBuf) decode(r io.Reader) error {
	buf := getBody()
	defer putBody(buf)
	if _, err := buf.ReadFrom(r); err != nil {
		return err
	}
	if sb.dec == nil {
		sb.dec = json.NewDecoder(&sb.rd)
	}
	value := bytes.TrimRight(buf.Bytes(), " \t\r\n")
	sb.rd.Reset(value)
	start := sb.dec.InputOffset()
	err := sb.dec.Decode(&sb.g)
	sb.rd.Reset(nil)
	if clean := err == nil && sb.dec.InputOffset()-start == int64(len(value)); !clean || len(value) > maxPooledBody {
		sb.dec = nil
		if !clean {
			return cmp.Or(json.Unmarshal(buf.Bytes(), new(GraphRequest)), err)
		}
	}
	return nil
}

// bodyPool recycles the buffers request bodies are read into: the whole
// body is read before it is decoded, so that anything after the top-level
// value is refused.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody bounds the buffer a pooled body keeps, the maxPooledDeps
// rule: one body near MaxBodyBytes must not be held for every later one.
const maxPooledBody = 64 << 10

func getBody() *bytes.Buffer { return bodyPool.Get().(*bytes.Buffer) }

// putBody empties b and returns it to the pool, unless it grew too large.
func putBody(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBody {
		b.Reset()
		bodyPool.Put(b)
	}
}

// replySlot holds a reply body while json.Encoder encodes it: a value
// converted to an interface that escapes is boxed on the heap, a pointer
// into a pooled slot is not. A slot is overwritten before every use. The
// encoder itself writes to the connection in one Write and, inlined, does
// not escape.
type replySlot struct {
	sub SubmitResponse
	st  JobStatus
	er  ErrorResponse
}

var replyPool = sync.Pool{New: func() any { return new(replySlot) }}

// jsonContentType is every reply's Content-Type value, shared: net/http
// only reads a header's values, and Header.Add appends past this slice's
// capacity, into a copy.
var jsonContentType = []string{"application/json"}

// writeJSON writes one JSON reply: a SubmitResponse, JobStatus or
// ErrorResponse. body is encoded from its slot in a pooled replySlot, so
// it does not escape and the caller's boxing of it costs no allocation.
func writeJSON(w http.ResponseWriter, status int, body any) {
	rs := replyPool.Get().(*replySlot)
	var v any
	switch b := body.(type) {
	case SubmitResponse:
		rs.sub, v = b, &rs.sub
	case JobStatus:
		rs.st, v = b, &rs.st
	default: // an ErrorResponse; any other type is a bug, and panics here
		rs.er, v = body.(ErrorResponse), &rs.er
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
	replyPool.Put(rs)
}
