//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// span is one timed interval at a layer boundary, recorded by the harness
// around its calls into that layer. Start and End are nanoseconds since
// the harness clock base; Parent is the ID of the span that caused this
// one (-1 for a graph's root); every span of one graph shares Graph.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Graph  int64  `json:"graph"`
}

// Span names, one per layer boundary the harness can see from outside.
const (
	spanGraph   = "graph"
	spanWait    = "loadgen.wait"
	spanSubmit  = "runtime.submit"
	spanPost    = "serve.post"
	spanHandler = "serve.handler"
	spanQueue   = "runtime.queue"
	spanExec    = "runtime.exec"
	spanBody    = "body"
	spanFinish  = "runtime.finish"
)

// bodySampleEvery: one task body in this many becomes a child span of
// runtime.exec.
const bodySampleEvery = 64

// tracer keeps a traced run's spans in memory. Every graph feeds the
// per-layer histograms; spans are kept for one graph in keepEvery so the
// trace file stays readable at a million tasks a second.
type tracer struct {
	spans     []span
	keepEvery int64
	layers    map[string]*hist
}

func newTracer(keepEvery int64) *tracer {
	return &tracer{keepEvery: keepEvery, layers: map[string]*hist{}}
}

// keeps reports whether the graph's spans are stored.
func (t *tracer) keeps(graph int64) bool { return graph%t.keepEvery == 0 }

// add stores one span and returns its ID.
func (t *tracer) add(name string, start, end int64, parent int, graph int64) int {
	if end < start {
		end = start
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: start, End: end, Parent: parent, Graph: graph})
	return id
}

// observe feeds one duration into a layer's histogram.
func (t *tracer) observe(layer string, ns int64) {
	h := t.layers[layer]
	if h == nil {
		h = new(hist)
		t.layers[layer] = h
	}
	h.record(ns)
}

// us is a layer quantile in microseconds, 0 for a layer never observed.
func (t *tracer) us(layer string, q float64) float64 {
	if h := t.layers[layer]; h != nil {
		return h.quantile(q) / 1e3
	}
	return 0
}

// selfTime is one layer's total over the kept spans.
type selfTime struct {
	Count   int   `json:"count"`
	TotalNs int64 `json:"total_ns"`
	// SelfNs is the total minus the part of each span its children cover.
	SelfNs int64 `json:"self_ns"`
}

// selfTimes computes, per span name, total duration and self time: a
// span's duration minus the union of its children's intervals clipped to
// it.
func selfTimes(spans []span) map[string]selfTime {
	children := map[int][]int{}
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]selfTime{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var cover, reach int64
		reach = s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				cover += hi - lo
				reach = hi
			}
		}
		st := out[s.Name]
		st.Count++
		st.TotalNs += s.End - s.Start
		st.SelfNs += s.End - s.Start - cover
		out[s.Name] = st
	}
	return out
}

// traceFile is what a traced run leaves in out/<workload>.trace.json.
type traceFile struct {
	Workload string              `json:"workload"`
	Seed     uint64              `json:"seed"`
	Host     string              `json:"host"`
	KeepOne  int64               `json:"spans_kept_for_one_graph_in"`
	Self     map[string]selfTime `json:"self_time"`
	Spans    []span              `json:"spans"`
}

// finish writes the run's spans to out/<workload>.trace.json and prints
// the self-time table: per span name, total and self time over the kept
// spans.
func (t *tracer) finish(cfg runConfig, res *result) {
	self := selfTimes(t.spans)
	path := filepath.Join(cfg.outDir, cfg.workload+".trace.json")
	data, err := json.Marshal(traceFile{
		Workload: cfg.workload, Seed: cfg.seed, Host: hostFingerprint(cfg.workers),
		KeepOne: t.keepEvery, Self: self, Spans: t.spans,
	})
	if err == nil {
		err = os.MkdirAll(cfg.outDir, 0o755)
	}
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		res.problem("writing the trace: %v", err)
		return
	}
	fmt.Printf("\ntrace: %d spans in %s (spans kept for 1 graph in %d)\n%-18s %8s %14s %14s\n",
		len(t.spans), path, t.keepEvery, "span", "count", "total ms", "self ms")
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := self[name]
		fmt.Printf("%-18s %8d %14.3f %14.3f\n", name, s.Count, float64(s.TotalNs)/1e6, float64(s.SelfNs)/1e6)
	}
}
