package serve

import (
	"runtime"
	"testing"
)

// warmServer builds the allocation gates' serving fixture — one CPU worker,
// a hot open loop whose batches close at MaxBatch, a sharded cache — and
// feeds it until every arena (workspace, batcher, admission heap) has seen
// its steady-state maximum. It returns the server and a feed that offers the
// next n requests of its stream. The workspace still grows a few times
// between requests 4000 and 5000 of this stream; 8000 clears that with room.
func warmServer(t *testing.T) (*server, func(n int)) {
	t.Helper()
	ds, m := testSetup(t)
	cfg := baseConfig(ds, m)
	cfg.Plat.Accels = nil // one CPU worker: the serial fast path
	cfg.NumRequests = 1 << 16
	cfg.RatePerSec = 50000 // hot: batches close at MaxBatch, admission sheds some
	cfg.CacheSize = 256
	cfg.CacheShards = 4
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed := func(n int) {
		for i := 0; i < n; i++ {
			r, _ := s.stream.Next()
			if err := s.offer(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed(8000)
	return s, feed
}

// The serving steady state — arrival → deadline expiry → admission →
// batching → cache lookup → routing → compute → cache publish → completion
// accounting — must run allocation-free once warm. This is the serving
// counterpart of core's TestTrainingIterationZeroAlloc: it gates the whole
// reuse discipline at once (ping-pong batch buffers, batched cache ops over
// preallocated scratch, generation-stamped vertex dedup, the dense
// service-time memo, the hand-rolled completion heap), so any new
// per-request or per-batch make/box anywhere in the loop fails it.
func TestServingSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation gate is skipped under -race")
	}
	s, feed := warmServer(t)
	batchesBefore, computedBefore := s.stats.Batches, s.stats.Computed
	if a := testing.AllocsPerRun(20, func() { feed(50) }); a != 0 {
		t.Fatalf("serving steady state allocated %.2f times per 50 requests, want 0", a)
	}
	// The gate must have exercised the full path, not just admission.
	if s.stats.Batches == batchesBefore || s.stats.Computed == computedBefore {
		t.Fatalf("gate did not reach dispatch: batches %d->%d computed %d->%d",
			batchesBefore, s.stats.Batches, computedBefore, s.stats.Computed)
	}
}

// The same gate with two Ps at the default kernel parallelism, which
// AllocsPerRun cannot measure (it pins GOMAXPROCS to 1): every kernel call
// of this fixture (batches of at most 32 targets, 20-16-5 SAGE, fanouts 8,4)
// falls under tensor.Grain, so it must run inline, with no goroutine,
// WaitGroup or closure allocated, even where a fork could run in parallel.
func TestServingSteadyStateZeroAllocTwoProcs(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation gate is skipped under -race")
	}
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	s, feed := warmServer(t)
	batchesBefore := s.stats.Batches
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	feed(4000)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("serving steady state at GOMAXPROCS 2 allocated %d times over 4000 requests, want 0", n)
	}
	if s.stats.Batches == batchesBefore {
		t.Fatal("gate did not reach dispatch")
	}
}

// Satellite micro-benchmark for the dispatch memo change: the router
// consults the per-worker predicted service time once per worker per closed
// batch. The legacy worker kept a map[int]float64; the pipeline now keeps a
// dense slice indexed by the MaxBatch-bounded computed count.
var memoSink float64

func BenchmarkServiceMemoMap(b *testing.B) {
	m := make(map[int]float64, 32)
	for c := 1; c <= 32; c++ {
		m[c] = float64(c) * 1e-4
	}
	b.ResetTimer()
	var s float64
	for i := 0; i < b.N; i++ {
		s += m[i&31+1]
	}
	memoSink = s
}

func BenchmarkServiceMemoSlice(b *testing.B) {
	sl := make([]float64, 33)
	for c := 1; c <= 32; c++ {
		sl[c] = float64(c) * 1e-4
	}
	b.ResetTimer()
	var s float64
	for i := 0; i < b.N; i++ {
		s += sl[i&31+1]
	}
	memoSink = s
}
