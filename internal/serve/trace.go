package serve

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Trace is a materialized arrival stream: every request of a run, in
// arrival order, with full bit-exact timestamps. Recording a workload once
// and replaying the trace pins the arrival process completely, so two
// replays produce byte-identical Stats and a formation/policy comparison
// sees exactly the same offered load.
type Trace struct {
	Requests []Request
}

// traceHeader tags the on-disk format; v1 is one request per line:
// "id vertex arrivalHex class cohort" with the arrival in Go's hex float
// syntax, which round-trips float64 exactly.
const traceHeader = "hyscale-serve-trace v1"

// GenerateTrace materializes cfg's arrival stream (workload or legacy) into
// a trace of NumRequests arrivals. The stream RNG is derived exactly as a
// run derives it, so serving cfg directly and replaying its generated trace
// produce identical Stats.
func GenerateTrace(cfg Config) (*Trace, error) {
	if cfg.NumRequests <= 0 {
		return nil, fmt.Errorf("serve: non-positive request count %d", cfg.NumRequests)
	}
	if cfg.Replay != nil {
		return nil, fmt.Errorf("serve: GenerateTrace on a replay config")
	}
	src, err := newArrivalSource(cfg, streamRNG(cfg))
	if err != nil {
		return nil, err
	}
	t := &Trace{Requests: make([]Request, 0, cfg.NumRequests)}
	for i := 0; i < cfg.NumRequests; i++ {
		r, ok := src.Next()
		if !ok {
			break
		}
		t.Requests = append(t.Requests, r)
	}
	return t, nil
}

// WriteTrace serializes a trace; the encoding is deterministic, so equal
// traces serialize to equal bytes.
func WriteTrace(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s n=%d\n", traceHeader, len(t.Requests))
	for _, r := range t.Requests {
		fmt.Fprintf(bw, "%d %d %s %d %d\n",
			r.ID, r.Vertex, strconv.FormatFloat(r.Arrival, 'x', -1, 64), r.Class, r.Cohort)
	}
	return bw.Flush()
}

// ReadTrace parses a serialized trace, validating arrival ordering and
// class range so a replayed trace upholds the stream contracts.
func ReadTrace(rd io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("serve: empty trace")
	}
	var n int
	if _, err := fmt.Sscanf(sc.Text(), traceHeader+" n=%d", &n); err != nil || n < 0 {
		return nil, fmt.Errorf("serve: bad trace header %q", sc.Text())
	}
	// The header count is only a hint for the pre-allocation until the
	// lines confirm it, so a corrupt count cannot demand a huge buffer.
	t := &Trace{Requests: make([]Request, 0, min(n, maxTracePrealloc))}
	prev := -1.0
	for sc.Scan() {
		var r Request
		var arrival string
		var class, cohort int
		if _, err := fmt.Sscanf(sc.Text(), "%d %d %s %d %d",
			&r.ID, &r.Vertex, &arrival, &class, &cohort); err != nil {
			return nil, fmt.Errorf("serve: bad trace line %q: %v", sc.Text(), err)
		}
		a, err := strconv.ParseFloat(arrival, 64)
		if err != nil {
			return nil, fmt.Errorf("serve: bad arrival %q: %v", arrival, err)
		}
		if a < prev {
			return nil, fmt.Errorf("serve: trace arrivals out of order at request %d", r.ID)
		}
		prev = a
		if class < 0 || class >= NumClasses {
			return nil, fmt.Errorf("serve: request %d: class %d out of range", r.ID, class)
		}
		if cohort < 0 || cohort > 255 {
			return nil, fmt.Errorf("serve: request %d: cohort %d out of range", r.ID, cohort)
		}
		r.Arrival, r.Class, r.Cohort = a, SLOClass(class), uint8(cohort)
		t.Requests = append(t.Requests, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(t.Requests) != n {
		return nil, fmt.Errorf("serve: trace header promises %d requests, found %d", n, len(t.Requests))
	}
	return t, nil
}

// maxTracePrealloc caps the request buffer ReadTrace reserves up front.
const maxTracePrealloc = 1 << 16

// validate checks a trace against the graph it is replayed on: vertices in
// range, classes known, arrivals in order. ReadTrace checks what a file
// alone can; newServer runs this before replaying, so a trace built in code
// or recorded on a smaller graph returns an error instead of panicking in
// dispatch. (Cohort is a uint8 tag the run only carries, so every value is
// valid.)
func (t *Trace) validate(numVertices int) error {
	prev := math.Inf(-1)
	for _, r := range t.Requests {
		if r.Vertex < 0 || int(r.Vertex) >= numVertices {
			return fmt.Errorf("serve: replayed request %d: vertex %d outside the %d-vertex graph",
				r.ID, r.Vertex, numVertices)
		}
		if r.Class >= NumClasses {
			return fmt.Errorf("serve: replayed request %d: class %d out of range", r.ID, r.Class)
		}
		if !(r.Arrival >= prev) {
			return fmt.Errorf("serve: replayed request %d: arrival %v out of order", r.ID, r.Arrival)
		}
		prev = r.Arrival
	}
	return nil
}

// traceSource replays a recorded trace as an arrival source; it is bounded,
// reporting exhaustion after the last recorded request.
type traceSource struct {
	reqs []Request
	i    int
}

func (t *traceSource) Next() (Request, bool) {
	if t.i >= len(t.reqs) {
		return Request{}, false
	}
	r := t.reqs[t.i]
	t.i++
	return r, true
}
