package gnn

import (
	"runtime"
	"testing"

	"repro/internal/sampler"
	"repro/internal/tensor"
)

var allKinds = []Kind{GCN, SAGE, GIN}

// raggedBlock builds a deliberately irregular block: zero-degree
// destinations, duplicate (src, dst) edges, self loops, and shared sources —
// every scatter hazard the parallel backward must survive.
func raggedBlock(rng *tensor.RNG, nDst, extraSrc, maxDeg int) *sampler.Block {
	nSrc := nDst + extraSrc
	src := make([]int32, nSrc)
	for i := range src {
		src[i] = int32(i * 7) // global IDs are arbitrary; Dst must prefix Src
	}
	b := &sampler.Block{Src: src, Dst: src[:nDst], RowPtr: make([]int32, nDst+1)}
	for d := 0; d < nDst; d++ {
		deg := rng.Intn(maxDeg + 1)
		if rng.Intn(8) == 0 {
			deg = 0 // the zero-degree path, however large maxDeg is
		}
		for e := 0; e < deg; e++ {
			s := int32(rng.Intn(nSrc))
			if e > 0 && rng.Intn(4) == 0 {
				s = b.Col[len(b.Col)-1] // duplicate edge
			}
			if rng.Intn(8) == 0 {
				s = int32(d) // self loop
			}
			b.Col = append(b.Col, s)
		}
		b.RowPtr[d+1] = int32(len(b.Col))
	}
	return b
}

// withParallelism sets both the kernel parallelism and GOMAXPROCS to par, so
// a kernel call whose work clears par·tensor.Grain forks par ways, and
// returns the undo.
func withParallelism(par int) (restore func()) {
	prevPar := tensor.SetParallelism(par)
	prevProcs := runtime.GOMAXPROCS(par)
	return func() {
		tensor.SetParallelism(prevPar)
		runtime.GOMAXPROCS(prevProcs)
	}
}

// requireWorkers fails the test unless a kernel call over rows rows carrying
// work units forks exactly want ways: an exactness test whose shapes fall
// under the grain would compare the inline path with itself.
func requireWorkers(t *testing.T, rows, work, want int) {
	t.Helper()
	if got := tensor.Workers(rows, work); got != want {
		t.Fatalf("tensor.Workers(%d, %d) = %d, want %d: shape does not exercise the parallel branch", rows, work, got, want)
	}
}

// TestAggregateBackwardParallelExactlyMatchesSerial is the correctness gate
// for the parallel backward scatter: across all model kinds and ragged
// blocks, the transposed-gather parallel path must equal the serial
// destination-major scatter bit for bit (not approximately — the transpose
// preserves each source's accumulation order exactly), at several worker
// counts, including workers ≫ rows. Degrees run to 300 and rows are wide
// enough that |E|·cols clears min(64, |src|)·Grain, so each worker count
// forks min(par, |src|) ways (an edgeless block has no work and runs
// inline).
func TestAggregateBackwardParallelExactlyMatchesSerial(t *testing.T) {
	rng := tensor.NewRNG(99)
	pars := []int{2, 4, 64}
	for _, kind := range allKinds {
		for trial := 0; trial < 20; trial++ {
			b := raggedBlock(rng, 1+rng.Intn(30), rng.Intn(40), 300)
			if err := b.Validate(); err != nil {
				t.Fatalf("%v trial %d: bad fixture: %v", kind, trial, err)
			}
			cfg := Config{Kind: kind, Dims: []int{5, 3}, GINEps: 0.3}
			nb := NewNeighborhood(cfg, b)
			cols := 1 + rng.Intn(9) // odd widths exercise the SIMD tails
			if e := b.NumEdges(); e > 0 {
				cols += min(pars[len(pars)-1], len(b.Src)) * tensor.Grain / e
			}
			dAgg := tensor.New(len(b.Dst), cols)
			tensor.NormalInit(dAgg, 1, rng)

			want := tensor.New(len(b.Src), cols)
			nb.AggregateBackwardSerial(want, dAgg)

			for _, par := range pars {
				restore := withParallelism(par)
				if b.NumEdges() > 0 {
					requireWorkers(t, len(b.Src), b.NumEdges()*cols, min(par, len(b.Src)))
				}
				got := tensor.New(len(b.Src), cols)
				// Fresh neighborhood per parallelism level; the block's
				// source-major index is built by the first and reused.
				NewNeighborhood(cfg, b).AggregateBackward(got, dAgg)
				restore()
				if !got.Equal(want) {
					t.Fatalf("%v trial %d par=%d: parallel scatter differs from serial (max diff %g)",
						kind, trial, par, got.MaxAbsDiff(want))
				}
			}
		}
	}
}

// TestAggregateBackwardSerialFallback covers the single-worker dispatch in
// AggregateBackward (the serial scatter, no source-major index), which a
// block this far under the grain takes at any parallelism setting.
func TestAggregateBackwardSerialFallback(t *testing.T) {
	rng := tensor.NewRNG(5)
	b := raggedBlock(rng, 12, 9, 4)
	cfg := Config{Kind: GCN, Dims: []int{4, 2}}
	nb := NewNeighborhood(cfg, b)
	dAgg := tensor.New(len(b.Dst), 4)
	tensor.NormalInit(dAgg, 1, rng)
	got := tensor.New(len(b.Src), 4)
	nb.AggregateBackward(got, dAgg)
	want := tensor.New(len(b.Src), 4)
	nb.AggregateBackwardSerial(want, dAgg)
	if !got.Equal(want) {
		t.Fatal("single-worker AggregateBackward must equal the serial scatter")
	}
}

// TestWSPathsMatchLegacy pins the workspace forms to the allocating ones:
// same mini-batch, same parameters — forward activations, logits, losses,
// and every gradient must be bit-identical across both code paths and
// across workspace reuse (two consecutive iterations through one arena).
func TestWSPathsMatchLegacy(t *testing.T) {
	for _, kind := range allKinds {
		dims := []int{6, 8, 5}
		fx := makeFixture(t, dims, 12, uint64(3+int(kind)))
		m, err := NewModel(Config{Kind: kind, Dims: dims, GINEps: 0.1}, tensor.NewRNG(9))
		if err != nil {
			t.Fatal(err)
		}
		wantGrads, wantLoss, wantAcc, err := m.TrainStep(fx.mb, fx.x)
		if err != nil {
			t.Fatal(err)
		}
		ws := tensor.NewWorkspace()
		st := &ForwardState{}
		grads := NewGradients(m.Params)
		for iter := 0; iter < 2; iter++ { // second pass runs entirely on reused buffers
			ws.Reset()
			loss, acc, err := m.TrainStepWS(ws, st, fx.mb, fx.x, grads)
			if err != nil {
				t.Fatal(err)
			}
			if loss != wantLoss || acc != wantAcc {
				t.Fatalf("%v iter %d: loss/acc %v/%v, want %v/%v", kind, iter, loss, acc, wantLoss, wantAcc)
			}
			if d := grads.MaxAbsDiff(wantGrads); d != 0 {
				t.Fatalf("%v iter %d: WS gradients differ from legacy by %g", kind, iter, d)
			}
		}

		// Inference forms agree with the forward pass too.
		legacy, err := m.InferMiniBatch(fx.mb, fx.x)
		if err != nil {
			t.Fatal(err)
		}
		ws.Reset()
		wsLogits, err := m.InferMiniBatchWS(ws, fx.mb, fx.x)
		if err != nil {
			t.Fatal(err)
		}
		if !wsLogits.Equal(legacy) {
			t.Fatalf("%v: InferMiniBatchWS differs from InferMiniBatch", kind)
		}
	}
}

// TestTrainStepWSZeroAllocs is the training-side allocation gate: once the
// arena has grown, a steady-state TrainStepWS allocates nothing. Measured at
// the default kernel parallelism: AllocsPerRun pins GOMAXPROCS to 1, so every
// kernel call runs inline, as it does in any single-P process.
func TestTrainStepWSZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation bypasses sync.Pool; allocation counts are nondeterministic")
	}
	for _, kind := range allKinds {
		dims := []int{6, 8, 5}
		fx := makeFixture(t, dims, 16, 17)
		m, err := NewModel(Config{Kind: kind, Dims: dims}, tensor.NewRNG(2))
		if err != nil {
			t.Fatal(err)
		}
		ws := tensor.NewWorkspace()
		st := &ForwardState{}
		grads := NewGradients(m.Params)
		step := func() {
			ws.Reset()
			if _, _, err := m.TrainStepWS(ws, st, fx.mb, fx.x, grads); err != nil {
				t.Fatal(err)
			}
		}
		step() // grow the arena
		if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
			t.Fatalf("%v: steady-state TrainStepWS allocated %v times per run", kind, allocs)
		}
	}
}

// TestInferMiniBatchWSZeroAllocs is the serving-side allocation gate, at
// the default kernel parallelism like the training one.
func TestInferMiniBatchWSZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation bypasses sync.Pool; allocation counts are nondeterministic")
	}
	for _, kind := range allKinds {
		dims := []int{6, 8, 5}
		fx := makeFixture(t, dims, 16, 23)
		m, err := NewModel(Config{Kind: kind, Dims: dims}, tensor.NewRNG(2))
		if err != nil {
			t.Fatal(err)
		}
		ws := tensor.NewWorkspace()
		batch := func() {
			ws.Reset()
			if _, err := m.InferMiniBatchWS(ws, fx.mb, fx.x); err != nil {
				t.Fatal(err)
			}
		}
		batch()
		if allocs := testing.AllocsPerRun(20, batch); allocs != 0 {
			t.Fatalf("%v: steady-state InferMiniBatchWS allocated %v times per run", kind, allocs)
		}
	}
}

// TestEdgeWeightsIntoReuse checks the reuse contract: dirty buffers are
// fully overwritten and the results match the allocating form.
func TestEdgeWeightsIntoReuse(t *testing.T) {
	rng := tensor.NewRNG(31)
	for _, kind := range allKinds {
		b := raggedBlock(rng, 10, 6, 4)
		cfg := Config{Kind: kind, Dims: []int{4, 2}, GINEps: 0.2}
		wantE, wantS := EdgeWeights(cfg, b)
		edgeW := make([]float32, b.NumEdges())
		selfW := make([]float32, len(b.Dst))
		for i := range edgeW {
			edgeW[i] = 99
		}
		for i := range selfW {
			selfW[i] = 99
		}
		gotE, gotS := EdgeWeightsInto(cfg, b, edgeW, selfW)
		for i := range wantE {
			if gotE[i] != wantE[i] {
				t.Fatalf("%v: edge weight %d differs", kind, i)
			}
		}
		for i := range wantS {
			if gotS[i] != wantS[i] {
				t.Fatalf("%v: self weight %d differs", kind, i)
			}
		}
	}
}

// TestAggregateBackwardSourceMajorFreshAfterResample pins the cache
// contract of the block's source-major index, which the parallel backward
// gathers through: re-sampling into the same retained Block storage (the
// training and serving loops' SampleInto) must yield a fresh index with no
// invalidation call by the caller, or the gather would run over the
// previous batch's graph.
func TestAggregateBackwardSourceMajorFreshAfterResample(t *testing.T) {
	fx := makeFixture(t, []int{5, 3}, 4, 43)
	s, err := sampler.New(fx.ds.Graph, []int{6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(44)
	const par = 4
	restore := withParallelism(par)
	defer restore()
	mb := &sampler.MiniBatch{}
	for _, kind := range allKinds {
		cfg := Config{Kind: kind, Dims: []int{5, 3}, GINEps: 0.4}
		var retained *sampler.Block
		for round := 0; round < 4; round++ {
			targets := make([]int32, 10)
			for i := range targets {
				targets[i] = int32(rng.Intn(fx.ds.Graph.NumVertices))
			}
			if err := s.SampleInto(mb, targets, rng); err != nil {
				t.Fatal(err)
			}
			b := mb.Blocks[0]
			if retained != nil && b != retained {
				t.Fatal("SampleInto did not reuse the retained block")
			}
			retained = b
			if idx := b.SourceMajor(); len(idx.Ptr) != len(b.Src)+1 || len(idx.Edges) != b.NumEdges() {
				t.Fatalf("%v round %d: index sized for %d sources/%d edges, block has %d/%d",
					kind, round, len(idx.Ptr)-1, len(idx.Edges), len(b.Src), b.NumEdges())
			}
			// Wide enough rows that the scatter forks par ways.
			cols := 7 + par*tensor.Grain/b.NumEdges()
			requireWorkers(t, len(b.Src), b.NumEdges()*cols, par)
			dAgg := tensor.New(len(b.Dst), cols)
			tensor.NormalInit(dAgg, 1, rng)
			nb := NewNeighborhood(cfg, b)
			got := tensor.New(len(b.Src), cols)
			nb.AggregateBackward(got, dAgg)
			want := tensor.New(len(b.Src), cols)
			nb.AggregateBackwardSerial(want, dAgg)
			if !got.Equal(want) {
				t.Fatalf("%v round %d: parallel backward differs from serial after re-sampling (max diff %g)",
					kind, round, got.MaxAbsDiff(want))
			}
		}
	}
}
