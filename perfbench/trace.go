package main

import (
	"sort"
	"time"
)

// span is one traced call: its layer name, wall interval (ns since the
// recorder's origin), the span that caused it, and the iteration or
// request it belongs to.
type span struct {
	name       string
	start, end int64
	parent     int32 // index into recorder.spans, -1 for a root
	id         int64
}

// recorder keeps spans in memory; they are summarised when the run ends.
// Calls are recorded from one goroutine, so a child span always lies
// inside its parent and siblings never overlap.
type recorder struct {
	origin time.Time
	spans  []span
	stack  []int32
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span under the innermost open one and returns its index.
func (r *recorder) begin(name string, id int64) int32 {
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, start: int64(time.Since(r.origin)), parent: parent, id: id})
	r.stack = append(r.stack, i)
	return i
}

// end closes span i, which must be the innermost open one.
func (r *recorder) end(i int32) {
	r.spans[i].end = int64(time.Since(r.origin))
	r.stack = r.stack[:len(r.stack)-1]
}

// selfTimes returns, per span name, the summed self time in seconds: each
// span's duration minus the union of its children's intervals.
func (r *recorder) selfTimes() map[string]float64 {
	children := make([][][2]int64, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := map[string]float64{}
	for i, s := range r.spans {
		out[s.name] += float64(s.end-s.start-union(children[i])) / 1e9
	}
	return out
}

// rootSeconds is the summed duration of the root spans.
func (r *recorder) rootSeconds() float64 {
	var ns int64
	for _, s := range r.spans {
		if s.parent < 0 {
			ns += s.end - s.start
		}
	}
	return float64(ns) / 1e9
}

// union is the total length covered by a set of intervals.
func union(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}
