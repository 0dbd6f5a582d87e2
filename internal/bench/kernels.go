// Kernel before/after benchmarks: the measured perf trajectory of the
// numeric core. Each row times a hot kernel in its pre-optimization form
// (the *Ref kernels and the allocating step paths, retained in-tree as
// oracles) against the shipped form (cache-blocked SIMD GEMMs, the
// transposed-gather parallel scatter, the zero-allocation workspace paths)
// at the paper's layer shapes and an ogbn-products-scale mini-batch. The
// report is written to BENCH_kernels.json so later PRs have a recorded
// baseline to regress against; the ext-kernels experiment renders the same
// numbers as a table.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/gnn"
	"repro/internal/hw"
	"repro/internal/optim"
	"repro/internal/sampler"
	"repro/internal/tensor"
)

// KernelMeasurement is one before/after row.
type KernelMeasurement struct {
	Kernel       string  `json:"kernel"`
	Shape        string  `json:"shape"`
	BaselineSec  float64 `json:"baseline_sec_per_op"`
	OptimizedSec float64 `json:"optimized_sec_per_op"`
	Speedup      float64 `json:"speedup"`
	// GFLOPS / effective GB/s are filled where the kernel has a natural
	// flop/byte count (GEMMs: 2mkn flops and the operand+result footprint;
	// the scatter: 2 accesses per scattered element).
	BaselineGFLOPS  float64 `json:"baseline_gflops,omitempty"`
	OptimizedGFLOPS float64 `json:"optimized_gflops,omitempty"`
	BaselineGBs     float64 `json:"baseline_gbs,omitempty"`
	OptimizedGBs    float64 `json:"optimized_gbs,omitempty"`
	BaselineAllocs  float64 `json:"baseline_allocs_per_op"`
	OptimizedAllocs float64 `json:"optimized_allocs_per_op"`
	// TensorPar and SIMDLevel record the dispatch state the row's optimized
	// side ran under; RooflineFrac is its achieved fraction of the machine
	// roofline at the row's arithmetic intensity (see roofline.go).
	TensorPar    int     `json:"tensor_parallelism,omitempty"`
	SIMDLevel    string  `json:"simd_level,omitempty"`
	RooflineFrac float64 `json:"roofline_frac,omitempty"`
	// GOMAXPROCS and OverlapRatio annotate the executed-pipeline epoch row:
	// the scheduler parallelism the row ran under, and the wall-clock
	// serial/prefetch ratio (1.0 = no overlap realized — the expectation on
	// a single-core runner, where the prefetch worker shares the only core;
	// the win lands on the multicore re-record).
	GOMAXPROCS   int     `json:"gomaxprocs,omitempty"`
	OverlapRatio float64 `json:"overlap_ratio,omitempty"`
	// CrossoverWork and Grain annotate the fork/join sweep rows: the least
	// swept work (tensor.Grain units) from which a 2-way split beat the
	// inline call at every larger swept size (0: it never did), and the
	// tensor.Grain constant the kernels fork by.
	CrossoverWork int `json:"crossover_work,omitempty"`
	Grain         int `json:"grain,omitempty"`
}

// KernelsReport is the BENCH_kernels.json payload.
type KernelsReport struct {
	GOARCH      string `json:"goarch"`
	NumCPU      int    `json:"num_cpu"`
	CPUModel    string `json:"cpu_model,omitempty"`
	Parallelism int    `json:"tensor_parallelism"`
	// SIMDLevel is the dispatch level active for the suite (simd trajectory
	// rows override per-entry); PeakGFLOPS/StreamGBs are the machine's
	// probed roofline ceilings (FMA-free compute peak and stream bandwidth).
	SIMDLevel  string              `json:"simd_level"`
	PeakGFLOPS float64             `json:"peak_gflops"`
	StreamGBs  float64             `json:"stream_gbs"`
	Kernels    []KernelMeasurement `json:"kernels"`
}

// measure times fn (after one warm-up call) until ~80 ms has elapsed and
// returns seconds per op and allocations per op.
func measure(fn func()) (secPerOp, allocsPerOp float64) {
	fn() // warm up: grow arenas, fault pages
	const target = 80 * time.Millisecond
	reps := 0
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for elapsed := time.Duration(0); elapsed < target; elapsed = time.Since(start) {
		fn()
		reps++
	}
	total := time.Since(start)
	runtime.ReadMemStats(&ms1)
	return total.Seconds() / float64(reps), float64(ms1.Mallocs-ms0.Mallocs) / float64(reps)
}

// measurePairMin interleaves timed rounds of a and b (after one warm-up
// call each) and returns each side's fastest single run plus the
// allocations of that run. For ops too slow for measure's 80 ms window to
// hold more than one rep (a ~100 ms training epoch), a single sample is
// dominated by this container's scheduling noise (±10% round to round);
// interleaving plus min-of-k cancels both the noise and any slow drift
// between the two sides.
func measurePairMin(a, b func(), rounds int) (aSec, bSec, aAllocs, bAllocs float64) {
	runtime.GC() // settle garbage from earlier fixtures: neither side pays for it
	a()          // warm up: grow arenas, fault pages
	b()
	one := func(fn func()) (sec, allocs float64) {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		fn()
		sec = time.Since(start).Seconds()
		runtime.ReadMemStats(&ms1)
		return sec, float64(ms1.Mallocs - ms0.Mallocs)
	}
	for r := 0; r < rounds; r++ {
		if s, al := one(a); r == 0 || s < aSec {
			aSec, aAllocs = s, al
		}
		if s, al := one(b); r == 0 || s < bSec {
			bSec, bAllocs = s, al
		}
	}
	return aSec, bSec, aAllocs, bAllocs
}

// gemmRow measures one GEMM shape through a baseline and an optimized
// kernel, annotating GFLOP/s and effective GB/s.
func gemmRow(name, shape string, flops, bytes float64, baseline, optimized func()) KernelMeasurement {
	bSec, bAllocs := measure(baseline)
	oSec, oAllocs := measure(optimized)
	return KernelMeasurement{
		Kernel: name, Shape: shape,
		BaselineSec: bSec, OptimizedSec: oSec, Speedup: bSec / oSec,
		BaselineGFLOPS: flops / bSec / 1e9, OptimizedGFLOPS: flops / oSec / 1e9,
		BaselineGBs: bytes / bSec / 1e9, OptimizedGBs: bytes / oSec / 1e9,
		BaselineAllocs: bAllocs, OptimizedAllocs: oAllocs,
	}
}

// kernelFixture is the shared ogbn-products-scale mini-batch context: a
// synthetic power-law graph sampled with the paper's batch size 1024 and
// fanouts (25, 10).
type kernelFixture struct {
	ds *datagen.Dataset
	mb *sampler.MiniBatch
	x  *tensor.Matrix
	m  *gnn.Model
}

func newKernelFixture(seed uint64) (*kernelFixture, error) {
	rng := tensor.NewRNG(seed)
	spec := datagen.Spec{Name: "kernels-bench", NumVertices: 60000, NumEdges: 600000,
		FeatDims: []int{100, 128, 47}, TrainNodes: 20000}
	ds, err := datagen.Materialize(spec, 0.4, rng)
	if err != nil {
		return nil, err
	}
	s, err := sampler.New(ds.Graph, []int{25, 10}, ds.Labels)
	if err != nil {
		return nil, err
	}
	mb, err := s.Sample(ds.TrainIdx[:1024], rng)
	if err != nil {
		return nil, err
	}
	x := tensor.New(len(mb.InputNodes()), spec.FeatDims[0])
	tensor.GatherRows(x, ds.Features, mb.InputNodes())
	m, err := gnn.NewModel(gnn.Config{Kind: gnn.GCN, Dims: spec.FeatDims}, rng)
	if err != nil {
		return nil, err
	}
	return &kernelFixture{ds: ds, mb: mb, x: x, m: m}, nil
}

// Kernels runs the full before/after suite.
func Kernels(seed uint64) (*KernelsReport, error) {
	rng := tensor.NewRNG(seed)
	report := &KernelsReport{
		GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU(), CPUModel: cpuModel(),
		Parallelism: tensor.Parallelism(), SIMDLevel: tensor.ActiveSIMDLevel().String(),
	}
	report.PeakGFLOPS, report.StreamGBs = MachinePeaks()

	// --- GEMMs at the paper's layer shapes.
	gemm := func(name string, m, k, n int, ref, opt func(c, a, b *tensor.Matrix), bT, aT bool) {
		a := tensor.New(m, k)
		tensor.NormalInit(a, 1, rng)
		b := tensor.New(k, n)
		tensor.NormalInit(b, 1, rng)
		c := tensor.New(m, n)
		argA, argB := a, b
		if bT {
			argB = tensor.Transpose(b)
		}
		if aT {
			argA = tensor.Transpose(a) // (k×m) with the batch extent k leading; c stays m×n
		}
		flops := 2 * float64(m) * float64(k) * float64(n)
		bytes := 4 * float64(m*k+k*n+m*n)
		report.Kernels = append(report.Kernels, gemmRow(
			name, fmt.Sprintf("%dx%d·%dx%d", m, k, k, n), flops, bytes,
			func() { ref(c, argA, argB) }, func() { opt(c, argA, argB) }))
	}
	gemm("MatMul", 1024, 128, 128, tensor.MatMulRef, tensor.MatMul, false, false)
	gemm("MatMul", 4096, 256, 256, tensor.MatMulRef, tensor.MatMul, false, false)
	gemm("MatMulT", 4096, 256, 128, tensor.MatMulTRef, tensor.MatMulT, true, false)
	// TMatMul: (R×m)ᵀ·(R×n) with the batch extent R in front.
	gemm("TMatMul", 128, 4096, 64, tensor.TMatMulRef, tensor.TMatMul, false, true)

	// --- SIMD dispatch trajectory: the same blocked GEMM at the SSE level
	// it shipped with (PR 5's recorded baseline) vs the AVX2 dispatch, on
	// machines that have it. Both sides are bit-identical in output — this
	// row isolates the pure lane-width gain.
	if tensor.DetectedSIMDLevel() >= tensor.SIMDAVX2 {
		m, k, n := 4096, 256, 256
		a := tensor.New(m, k)
		tensor.NormalInit(a, 1, rng)
		bm := tensor.New(k, n)
		tensor.NormalInit(bm, 1, rng)
		c := tensor.New(m, n)
		prev, err := tensor.SetSIMDLevel(tensor.SIMDSSE)
		if err != nil {
			return nil, err
		}
		sseSec, sseAllocs := measure(func() { tensor.MatMul(c, a, bm) })
		if _, err := tensor.SetSIMDLevel(tensor.SIMDAVX2); err != nil {
			return nil, err
		}
		avxSec, avxAllocs := measure(func() { tensor.MatMul(c, a, bm) })
		if _, err := tensor.SetSIMDLevel(prev); err != nil {
			return nil, err
		}
		flops := 2 * float64(m) * float64(k) * float64(n)
		bytes := 4 * float64(m*k+k*n+m*n)
		report.Kernels = append(report.Kernels, KernelMeasurement{
			Kernel: "MatMul(sse→avx2)", Shape: fmt.Sprintf("%dx%d·%dx%d", m, k, k, n),
			BaselineSec: sseSec, OptimizedSec: avxSec, Speedup: sseSec / avxSec,
			BaselineGFLOPS: flops / sseSec / 1e9, OptimizedGFLOPS: flops / avxSec / 1e9,
			BaselineGBs: bytes / sseSec / 1e9, OptimizedGBs: bytes / avxSec / 1e9,
			BaselineAllocs: sseAllocs, OptimizedAllocs: avxAllocs,
			SIMDLevel: tensor.SIMDAVX2.String(),
		})
	}

	report.Kernels = append(report.Kernels, forkJoinRows(rng)...)

	// --- Backward scatter at ogbn-products mini-batch scale.
	fx, err := newKernelFixture(seed)
	if err != nil {
		return nil, err
	}
	blk := fx.mb.Blocks[0] // the fanout-25 layer: the scatter-heavy one
	nb := gnn.NewNeighborhood(fx.m.Cfg, blk)
	cols := 128
	dAgg := tensor.New(len(blk.Dst), cols)
	tensor.NormalInit(dAgg, 1, rng)
	dh := tensor.New(len(blk.Src), cols)
	contributions := float64(blk.NumEdges()+len(blk.Dst)) * float64(cols)
	scatterBytes := contributions * 4 * 2 // read the gradient row, read+write the source row
	sSec, sAllocs := measure(func() {
		dh.Zero()
		nb.AggregateBackwardSerial(dh, dAgg)
	})
	oSec, oAllocs := measure(func() {
		dh.Zero()
		nb.AggregateBackward(dh, dAgg)
	})
	report.Kernels = append(report.Kernels, KernelMeasurement{
		Kernel:      "AggregateBackward",
		Shape:       fmt.Sprintf("|E|=%d |src|=%d f=%d (batch 1024, fanouts 25,10)", blk.NumEdges(), len(blk.Src), cols),
		BaselineSec: sSec, OptimizedSec: oSec, Speedup: sSec / oSec,
		BaselineGBs: scatterBytes / sSec / 1e9, OptimizedGBs: scatterBytes / oSec / 1e9,
		BaselineAllocs: sAllocs, OptimizedAllocs: oAllocs,
	})

	// --- Steady-state training step: allocating legacy path vs workspace.
	grads := gnn.NewGradients(fx.m.Params)
	ws := tensor.NewWorkspace()
	st := &gnn.ForwardState{}
	tSec, tAllocs := measure(func() {
		if _, _, _, err := fx.m.TrainStep(fx.mb, fx.x); err != nil {
			panic(err)
		}
	})
	wSec, wAllocs := measure(func() {
		ws.Reset()
		if _, _, err := fx.m.TrainStepWS(ws, st, fx.mb, fx.x, grads); err != nil {
			panic(err)
		}
	})
	report.Kernels = append(report.Kernels, KernelMeasurement{
		Kernel: "TrainStep", Shape: "batch 1024, fanouts 25,10, dims 100-128-47",
		BaselineSec: tSec, OptimizedSec: wSec, Speedup: tSec / wSec,
		BaselineAllocs: tAllocs, OptimizedAllocs: wAllocs,
	})

	// --- Steady-state serving batch (the computed-targets propagation).
	serveTargets := fx.ds.TrainIdx[:32]
	smp, err := sampler.New(fx.ds.Graph, []int{25, 10}, nil)
	if err != nil {
		return nil, err
	}
	smb, err := smp.Sample(serveTargets, rng)
	if err != nil {
		return nil, err
	}
	sx := tensor.New(len(smb.InputNodes()), fx.ds.Features.Cols)
	tensor.GatherRows(sx, fx.ds.Features, smb.InputNodes())
	iSec, iAllocs := measure(func() {
		if _, err := fx.m.InferMiniBatch(smb, sx); err != nil {
			panic(err)
		}
	})
	sws := tensor.NewWorkspace()
	jSec, jAllocs := measure(func() {
		sws.Reset()
		if _, err := fx.m.InferMiniBatchWS(sws, smb, sx); err != nil {
			panic(err)
		}
	})
	report.Kernels = append(report.Kernels, KernelMeasurement{
		Kernel: "ServingBatch", Shape: "32 targets, fanouts 25,10, dims 100-128-47",
		BaselineSec: iSec, OptimizedSec: jSec, Speedup: iSec / jSec,
		BaselineAllocs: iAllocs, OptimizedAllocs: jAllocs,
	})

	// --- End-to-end epoch, allocation path isolated: both sides run the
	// shipped kernels (their gain is the rows above); the baseline re-creates
	// the pre-workspace per-iteration behavior — fresh feature gather, fresh
	// gradients, allocating TrainStep — while the optimized side is the
	// trainer backends' scratch discipline.
	epochRng := tensor.NewRNG(seed + 1)
	batcher, err := sampler.NewBatcher(fx.ds.TrainIdx, 256, epochRng)
	if err != nil {
		return nil, err
	}
	esmp, err := sampler.New(fx.ds.Graph, []int{10, 5}, fx.ds.Labels)
	if err != nil {
		return nil, err
	}
	sgd, err := optim.NewSGD(0.1, 0)
	if err != nil {
		return nil, err
	}
	iters := 8 // a slice of the epoch large enough to time, small enough for CI
	legacyEpoch := func() {
		for it := 0; it < iters; it++ {
			mb, err := esmp.Sample(batcher.Next(), epochRng)
			if err != nil {
				panic(err)
			}
			x := tensor.New(len(mb.InputNodes()), fx.ds.Features.Cols)
			tensor.GatherRows(x, fx.ds.Features, mb.InputNodes())
			g, _, _, err := fx.m.TrainStep(mb, x)
			if err != nil {
				panic(err)
			}
			sgd.Step(fx.m.Params, g)
		}
	}
	ews := tensor.NewWorkspace()
	est := &gnn.ForwardState{}
	egrads := gnn.NewGradients(fx.m.Params)
	stageWS := tensor.NewWorkspace()
	var emb sampler.MiniBatch // reused by SampleInto: the optimized side samples allocation-free too
	wsEpoch := func() {
		for it := 0; it < iters; it++ {
			if err := esmp.SampleInto(&emb, batcher.Next(), epochRng); err != nil {
				panic(err)
			}
			mb := &emb
			stageWS.Reset()
			x := stageWS.Get(len(mb.InputNodes()), fx.ds.Features.Cols)
			tensor.GatherRows(x, fx.ds.Features, mb.InputNodes())
			ews.Reset()
			if _, _, err := fx.m.TrainStepWS(ews, est, mb, x, egrads); err != nil {
				panic(err)
			}
			sgd.Step(fx.m.Params, egrads)
		}
	}
	eSec, eAllocs := measure(legacyEpoch)
	fSec, fAllocs := measure(wsEpoch)
	report.Kernels = append(report.Kernels, KernelMeasurement{
		Kernel: "Epoch(alloc path)", Shape: fmt.Sprintf("%d iterations, batch 256, fanouts 10,5", iters),
		BaselineSec: eSec, OptimizedSec: fSec, Speedup: eSec / fSec,
		BaselineAllocs: eAllocs, OptimizedAllocs: fAllocs,
	})

	// --- Executed pipeline: the same epoch on the real engine under the
	// serial vs the software-pipelined (prefetch) schedule. Both sides run
	// the shipped kernels and produce bit-identical trajectories (gated in
	// core's tests); the row isolates pure scheduling — prepare(i+1)
	// overlapping compute(i). On a single-core runner the prefetch worker
	// shares the only core, so the honest expectation is ratio ≈ 1.0; the
	// ROADMAP's multicore re-record is where the overlap pays; on a single
	// proc RunEpoch degenerates to the inline pipelined schedule (a worker
	// could only time-slice), so this row honestly reads ≈1.0 here. One
	// epoch is ~100 ms — too slow for measure's window to average — so the
	// two modes are interleaved and each side reports its fastest of seven
	// rounds.
	// Sized so the depth-2 ring's two feature slots fit in cache together:
	// the row then prices the schedule, not the eviction pattern of a
	// fixture that happens to exceed this host's LLC.
	pipeSpec := datagen.Spec{Name: "pipeline-bench", NumVertices: 20000,
		NumEdges: 160000, FeatDims: []int{32, 32, 16}, TrainNodes: 1024}
	mkEngine := func(mode core.PipelineMode) (*core.Engine, error) {
		pds, err := datagen.Materialize(pipeSpec, 0.4, tensor.NewRNG(seed+2))
		if err != nil {
			return nil, err
		}
		plat := hw.CPUFPGAPlatform()
		plat.Accels = nil // CPU-only fleet: wall-clock is honest on this host
		return core.NewEngine(core.Config{
			Plat: plat, Data: pds,
			Model:     gnn.Config{Kind: gnn.SAGE, Dims: pipeSpec.FeatDims},
			LR:        0.1,
			BatchSize: 128,
			Fanouts:   []int{10, 5},
			Hybrid:    true, TFP: true,
			Pipeline: mode,
			Seed:     seed,
		})
	}
	serialEng, err := mkEngine(core.PipelineSerial)
	if err != nil {
		return nil, err
	}
	prefetchEng, err := mkEngine(core.PipelinePrefetch)
	if err != nil {
		return nil, err
	}
	runEpoch := func(e *core.Engine) func() {
		return func() {
			if _, err := e.RunEpoch(); err != nil {
				panic(err)
			}
		}
	}
	pSec, qSec, pAllocs, qAllocs := measurePairMin(runEpoch(serialEng), runEpoch(prefetchEng), 7)
	report.Kernels = append(report.Kernels, KernelMeasurement{
		Kernel: "Epoch(serial→prefetch)",
		Shape: fmt.Sprintf("%d targets/epoch, batch 128, fanouts 10,5, dims 32-32-16",
			pipeSpec.TrainNodes),
		BaselineSec: pSec, OptimizedSec: qSec, Speedup: pSec / qSec,
		BaselineAllocs: pAllocs, OptimizedAllocs: qAllocs,
		GOMAXPROCS: runtime.GOMAXPROCS(0), OverlapRatio: pSec / qSec,
	})

	// --- Annotate every row with its dispatch state and roofline fraction.
	for i := range report.Kernels {
		k := &report.Kernels[i]
		if k.TensorPar == 0 {
			k.TensorPar = tensor.Parallelism()
		}
		if k.SIMDLevel == "" {
			k.SIMDLevel = tensor.ActiveSIMDLevel().String()
		}
		rooflineFrac(k, report.PeakGFLOPS, report.StreamGBs)
	}
	return report, nil
}

// split2 runs fn over [0, rows) as two contiguous halves on two goroutines
// joined by a WaitGroup: the fork tensor.ParallelRows makes at two workers.
func split2(rows int, fn func(lo, hi int)) {
	mid := (rows + 1) / 2
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); fn(0, mid) }()
	go func() { defer wg.Done(); fn(mid, rows) }()
	wg.Wait()
}

// forkJoinRows measures what a kernel fork costs and from what work size it
// pays, at GOMAXPROCS 1 and 2: a 2-way split (split2) against the inline
// call, first of an empty body — the bare fork/join cost — then of a 64-wide
// MatMul and GatherRows swept over 2^16..2^23 work units. Each sweep row
// records its crossover and times both sides at 2·tensor.Grain, the least
// work tensor.Workers forks. At GOMAXPROCS 1 the halves take turns on one P,
// so no split can win there.
func forkJoinRows(rng *tensor.RNG) []KernelMeasurement {
	prevPar := tensor.SetParallelism(1) // the halves run inline; split2 is the only fork
	defer tensor.SetParallelism(prevPar)
	prevProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prevProcs)

	const cols, minWork, maxWork = 64, 1 << 16, 1 << 23
	rowsOf := func(m *tensor.Matrix, lo, hi int) *tensor.Matrix {
		return tensor.FromSlice(hi-lo, m.Cols, m.Data[lo*m.Cols:hi*m.Cols])
	}
	b := tensor.New(cols, cols)
	tensor.NormalInit(b, 1, rng)
	a := tensor.New(maxWork/(2*cols*cols), cols)
	tensor.NormalInit(a, 1, rng)
	c := tensor.New(a.Rows, cols)
	src := tensor.New(20000, cols)
	tensor.NormalInit(src, 1, rng)
	idx := make([]int32, maxWork/cols)
	for i := range idx {
		idx[i] = int32(rng.Intn(src.Rows))
	}
	dst := tensor.New(len(idx), cols)
	kernels := []struct {
		name, shape string
		rows        func(work int) int
		body        func(lo, hi int)
	}{
		{"MatMul", "m×64·64×64", func(w int) int { return w / (2 * cols * cols) },
			func(lo, hi int) { tensor.MatMul(rowsOf(c, lo, hi), rowsOf(a, lo, hi), b) }},
		{"GatherRows", "n×64 from 20000×64", func(w int) int { return w / cols },
			func(lo, hi int) { tensor.GatherRowsSerial(rowsOf(dst, lo, hi), src, idx[lo:hi]) }},
	}

	empty := func(lo, hi int) {}
	var rows []KernelMeasurement
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		inSec, inAllocs := measure(func() { empty(0, 2) })
		fkSec, fkAllocs := measure(func() { split2(2, empty) })
		rows = append(rows, KernelMeasurement{
			Kernel: "ForkJoin(2-way)", Shape: fmt.Sprintf("GOMAXPROCS %d: empty body", procs),
			BaselineSec: inSec, OptimizedSec: fkSec, Speedup: inSec / fkSec,
			BaselineAllocs: inAllocs, OptimizedAllocs: fkAllocs,
			TensorPar: 2, GOMAXPROCS: procs, Grain: tensor.Grain,
		})
		for _, k := range kernels {
			crossover := 0
			for w := maxWork; w >= minWork; w /= 2 {
				n := k.rows(w)
				inSec, _ := measure(func() { k.body(0, n) })
				fkSec, _ := measure(func() { split2(n, k.body) })
				if fkSec >= inSec {
					break
				}
				crossover = w
			}
			n := k.rows(2 * tensor.Grain)
			inSec, inAllocs := measure(func() { k.body(0, n) })
			fkSec, fkAllocs := measure(func() { split2(n, k.body) })
			rows = append(rows, KernelMeasurement{
				Kernel: "ForkJoin(2-way)",
				Shape: fmt.Sprintf("GOMAXPROCS %d: %s %s at 2·Grain = %d units; split wins from %d",
					procs, k.name, k.shape, 2*tensor.Grain, crossover),
				BaselineSec: inSec, OptimizedSec: fkSec, Speedup: inSec / fkSec,
				BaselineAllocs: inAllocs, OptimizedAllocs: fkAllocs,
				TensorPar: 2, GOMAXPROCS: procs, CrossoverWork: crossover, Grain: tensor.Grain,
			})
		}
	}
	return rows
}

// ExtKernels renders the kernel before/after suite as a table.
func ExtKernels(seed uint64) (*Table, error) {
	report, err := Kernels(seed)
	if err != nil {
		return nil, err
	}
	t := KernelsTable(report)
	return t, nil
}

// KernelsTable formats a report (exported so the root benchmark and
// cmd/experiments render the same artifact they serialize).
func KernelsTable(report *KernelsReport) *Table {
	t := &Table{
		Title: fmt.Sprintf("Extension: kernel before/after (GOARCH %s, %d CPUs, tensor parallelism %d, simd %s, peak %.1f GFLOP/s, stream %.1f GB/s)",
			report.GOARCH, report.NumCPU, report.Parallelism, report.SIMDLevel,
			report.PeakGFLOPS, report.StreamGBs),
		Header: []string{"Kernel", "Shape", "Before s/op", "After s/op", "Speedup",
			"After GFLOP/s", "After GB/s", "Roofline", "Allocs before", "Allocs after"},
	}
	for _, k := range report.Kernels {
		t.AddRow(Txt(k.Kernel), Txt(k.Shape),
			Num(k.BaselineSec, "%.3g"), Num(k.OptimizedSec, "%.3g"), Num(k.Speedup, "%.2fx"),
			Num(k.OptimizedGFLOPS, "%.1f"), Num(k.OptimizedGBs, "%.1f"),
			Num(k.RooflineFrac*100, "%.0f%%"), Num(k.BaselineAllocs, "%.0f"), Num(k.OptimizedAllocs, "%.0f"))
	}
	return t
}

// WriteKernelsJSON runs the suite and records it at path (the repository
// convention is BENCH_kernels.json at the root).
func WriteKernelsJSON(path string, seed uint64) (*KernelsReport, error) {
	report, err := Kernels(seed)
	if err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return nil, err
	}
	return report, os.WriteFile(path, append(data, '\n'), 0o644)
}
