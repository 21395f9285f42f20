package serve

import (
	"bytes"
	"sync"
)

// reqPool recycles decoded graph requests so the Tasks/Deps backing
// arrays encoding/json would otherwise regrow element by element survive
// between requests. A request leaves through getRequest, belongs to the
// handler until admission and to the job until it is lowered, and comes
// back through putRequest from whichever of the two held it last.
var reqPool = sync.Pool{New: func() any { return new(GraphRequest) }}

// maxPooledDeps bounds the per-task Deps array a pooled request keeps:
// one fat task must not make every later request pay for scrubbing it.
const maxPooledDeps = 64

func getRequest() *GraphRequest { return reqPool.Get().(*GraphRequest) }

// putRequest scrubs req and returns it to the pool. The Tasks array it may
// keep is bounded by the server's graph-size limit: anything larger was
// refused, and is not worth scrubbing forever.
func (s *Server) putRequest(req *GraphRequest) {
	req.scrub(s.cfg.MaxGraphTasks)
	reqPool.Put(req)
}

// scrub zeroes the request for reuse, keeping the Tasks and per-task Deps
// arrays. Both are zeroed over their full capacity, not their length:
// encoding/json decodes into existing elements without zeroing them, so a
// field the next body omits (retry, deadline_ms, deps…) would otherwise
// keep the value some earlier request — possibly another tenant's — left
// in that slot, and a duplicated "tasks" member can leave decoded elements
// beyond the final length.
func (g *GraphRequest) scrub(maxTasks int) {
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
		tasks[i] = TaskRequest{Deps: deps[:0]}
	}
	*g = GraphRequest{Tasks: tasks[:0]}
}

// bodyPool recycles the buffers handleSubmit reads request bodies into:
// the whole body is read, then decoded in one json.Unmarshal, which costs
// no per-request Decoder, read buffer or second scanner (and, unlike
// Decoder.Decode, refuses anything after the top-level value).
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
