package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/sampler"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// serveWorker replays one core.InferencePipeline: the same sample, gather,
// price and propagate steps its RunBatch performs, each through the
// exported function RunBatch calls, so the inner layers get spans of their
// own. The batch as a whole is the core.infer span; its self time is the
// pipeline's pricing and staging.
type serveWorker struct {
	dev        int // 0: the CPU peer; i > 0: Plat.Accels[i-1]
	device     hw.Device
	pm         *perfmodel.Model
	smp        *sampler.Sampler
	clock      *core.PipelineClock
	rng        *tensor.RNG
	ws         *tensor.Workspace
	mb         sampler.MiniBatch
	backend    *accel.Backend
	samp, load int
	svc        []float64 // predicted service seconds by computed-target count
}

func newServeWorker(cfg serve.Config, dev int, seed uint64) (*serveWorker, error) {
	pm, err := perfmodel.New(cfg.Plat, perfmodel.Workload{
		Spec: cfg.Data.Spec, Model: cfg.Model.Cfg.Kind, BatchSize: 1, Fanouts: cfg.Fanouts,
	})
	if err != nil {
		return nil, err
	}
	smp, err := sampler.New(cfg.Data.Graph, cfg.Fanouts, nil)
	if err != nil {
		return nil, err
	}
	quarter := max(1, cfg.Plat.TotalCPUCores()/4)
	w := &serveWorker{
		dev: dev, device: cfg.Plat.CPU, pm: pm, smp: smp,
		clock: core.NewPipelineClock(true, false), rng: tensor.NewRNG(seed),
		ws: tensor.NewWorkspace(), samp: quarter, load: quarter,
	}
	if dev > 0 {
		w.device = cfg.Plat.Accels[dev-1]
		if w.device.Kind == hw.FPGA {
			b := accel.U250Backend(cfg.Model.Cfg.Dims[0])
			w.backend = &b
		}
	}
	w.svc = make([]float64, cfg.MaxBatch+1)
	for c := range w.svc {
		st, err := pm.ServingBatchStage(dev, c, w.samp, w.load)
		if err != nil {
			return nil, err
		}
		w.svc[c] = perfmodel.ServingServiceSec(st)
	}
	return w, nil
}

// runBatch is the replayed RunBatch: logits for targets and the batch's
// virtual stage times.
func (w *serveWorker) runBatch(rec *recorder, counts *layerCounts, cfg serve.Config, targets []int32, id int64) (*tensor.Matrix, perfmodel.StageTimes, error) {
	root := rec.begin("core.infer", id)
	defer rec.end(root)
	var st perfmodel.StageTimes
	w.ws.Reset()
	sp := rec.begin("sampler", id)
	err := w.smp.SampleInto(&w.mb, targets, w.rng)
	rec.end(sp)
	if err != nil {
		return nil, st, err
	}
	mb := &w.mb
	in := mb.InputNodes()
	x := w.ws.Get(len(in), cfg.Data.Features.Cols)
	sp = rec.begin("tensor.gather", id)
	tensor.GatherRows(x, cfg.Data.Features, in)
	rec.end(sp)
	counts.edges += float64(mb.EdgesTraversed())
	counts.gatherBytes += float64(len(in) * x.Cols * 4)
	sz := sizesOf(mb)
	st.SampCPU = w.pm.SampleTimeCPUEdges(float64(mb.EdgesTraversed()), w.samp)
	var logits *tensor.Matrix
	if w.dev > 0 {
		rows := make([]float64, len(cfg.Plat.Accels))
		rows[w.dev-1] = sz.VL[0]
		st.Load = w.pm.LoadTimeForDeviceRows(rows, w.load)
		st.Trans = w.pm.TransferTimeDev(w.dev-1, sz)
		if w.backend != nil {
			sp = rec.begin("accel.forward", id)
			out, fs, err := w.backend.Forward(cfg.Model, mb, x)
			rec.end(sp)
			if err != nil {
				return nil, st, fmt.Errorf("fpga serving worker: %w", err)
			}
			counts.fpga.Add(*fs)
			st.TrainAcc = perfmodel.ServingOverheads(w.device, fs.Sec)
			logits = out
		} else {
			st.TrainAcc = perfmodel.ServingOverheads(w.device, w.pm.PropForwardFor(w.device, sz, 1))
		}
	} else {
		st.Load = w.pm.LoadTimeForRows(sz.VL[0], w.load)
		cores := cfg.Plat.TotalCPUCores()
		share := float64(cores-w.samp-w.load) / float64(cores)
		if share <= 0 {
			share = 0.5
		}
		st.TrainCPU = perfmodel.ServingOverheads(w.device, w.pm.PropForwardFor(w.device, sz, share))
	}
	if logits == nil {
		sp = rec.begin("gnn.infer", id)
		logits, err = cfg.Model.InferMiniBatchWS(w.ws, mb, x)
		rec.end(sp)
		if err != nil {
			return nil, st, err
		}
		counts.flops += passFlops(cfg.Model.Cfg, mb, false)
	}
	return logits, st, nil
}

// serveReplay replays serve.Run's event loop — arrivals, admission,
// batching, the cache pass, earliest-completion routing and each worker's
// batch — through the serve package's exported types, with a span around
// each call. It is built as serve.Run builds its server (same seeds, same
// kind caps, same formation), so it serves the same stream the same way.
type serveReplay struct {
	rec       *recorder
	counts    *layerCounts
	cfg       serve.Config
	pool      []*serveWorker
	next      func() serve.Request
	batcher   *serve.DynamicBatcher
	admission *serve.AdmissionController
	cache     *serve.ShardedCache

	rejected, computed, batches int
	lat, waits                  []float64

	// Per-batch scratch, reused so the replay's own allocations stay out
	// of the unattributed time.
	keys, putKeys     []serve.CacheKey
	ready             []float64
	hit               []bool
	order             []int32
	putEmbs           [][]float32
	hitDone, compDone []float64
	vertexGen         []uint32
	gen               uint32
}

func newServeReplay(cfg serve.Config, rec *recorder, counts *layerCounts) (*serveReplay, error) {
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 1024
	}
	bindings := []int{}
	for i := 0; i < min(cfg.Workers, len(cfg.Plat.Accels)); i++ {
		bindings = append(bindings, i+1)
	}
	if cfg.CPUPeer {
		bindings = append(bindings, 0)
	}
	rng := tensor.NewRNG(cfg.Seed)
	r := &serveReplay{rec: rec, counts: counts, cfg: cfg, vertexGen: make([]uint32, cfg.Data.Graph.NumVertices)}
	for _, dev := range bindings {
		w, err := newServeWorker(cfg, dev, rng.Uint64())
		if err != nil {
			return nil, err
		}
		r.pool = append(r.pool, w)
	}
	nv := cfg.Data.Graph.NumVertices
	if cfg.Workload != nil {
		ws, err := serve.NewWorkloadStream(cfg.Workload, nv, rng.Split())
		if err != nil {
			return nil, err
		}
		r.next = func() serve.Request { q, _ := ws.Next(); return q } // a generated stream never ends
	} else {
		rs, err := serve.NewRequestStream(nv, cfg.RatePerSec, cfg.ZipfExponent, rng.Split())
		if err != nil {
			return nil, err
		}
		r.next = rs.Next
	}
	b, err := serve.NewSplitBatcher(cfg.MaxBatch, cfg.WindowSec, 0)
	if err != nil {
		return nil, err
	}
	if f, err := serve.ParseFormation(cfg.Formation); err != nil {
		return nil, err
	} else if f != serve.FormationFCFS {
		svc := r.pool[0].svc
		if err := b.SetFormation(f, func(size int) float64 { return svc[min(size, len(svc)-1)] }); err != nil {
			return nil, err
		}
	}
	r.batcher = b
	if r.admission, err = serve.NewAdmissionController(cfg.QueueCap); err != nil {
		return nil, err
	}
	var kinds [hw.KindCount]int
	for _, w := range r.pool {
		kinds[w.device.Kind]++
	}
	mixed := 0
	for _, n := range kinds {
		if n > 0 {
			mixed++
		}
	}
	if mixed > 1 {
		for k, n := range kinds {
			if n > 0 {
				r.admission.SetKindCap(hw.Kind(k), max(1, cfg.QueueCap*n/len(r.pool)))
			}
		}
	}
	dims := cfg.Model.Cfg.Dims
	r.cache = serve.NewShardedCache(cfg.CacheSize, cfg.CacheShards, dims[len(dims)-1])
	return r, nil
}

// run replays the whole stream under a root span.
func (r *serveReplay) run() error {
	root := r.rec.begin("serve.run", 0)
	defer r.rec.end(root)
	for i := 0; i < r.cfg.NumRequests; i++ {
		sp := r.rec.begin("serve.arrival", int64(i))
		q := r.next()
		r.rec.end(sp)
		if err := r.offer(q); err != nil {
			return err
		}
	}
	sp := r.rec.begin("serve.batcher", -1)
	batch, closeAt := r.batcher.Flush()
	r.rec.end(sp)
	if batch != nil {
		return r.dispatch(batch, closeAt)
	}
	return nil
}

func (r *serveReplay) offer(q serve.Request) error {
	for {
		sp := r.rec.begin("serve.batcher", int64(q.ID))
		batch, closeAt := r.batcher.CloseExpired(q.Arrival)
		r.rec.end(sp)
		if batch == nil {
			break
		}
		if err := r.dispatch(batch, closeAt); err != nil {
			return err
		}
	}
	sp := r.rec.begin("serve.admission", int64(q.ID))
	ok := r.admission.AdmitClass(q.Arrival, q.Class)
	r.rec.end(sp)
	if !ok {
		r.rejected++
		return nil
	}
	sp = r.rec.begin("serve.batcher", int64(q.ID))
	batch, closeAt := r.batcher.Add(q)
	r.rec.end(sp)
	if batch != nil {
		return r.dispatch(batch, closeAt)
	}
	return nil
}

func (r *serveReplay) answer(q serve.Request, done float64, computed bool) {
	r.lat = append(r.lat, done-q.Arrival)
	if computed {
		r.compDone = append(r.compDone, done)
	} else {
		r.hitDone = append(r.hitDone, done)
	}
}

// route picks the worker with the earliest predicted completion, skipping
// device kinds whose in-flight share is exhausted unless every kind is.
func (r *serveReplay) route(computed int, closeAt float64) int {
	for _, skip := range []bool{true, false} {
		best := -1
		var bestPred, bestAvail float64
		for i, w := range r.pool {
			if skip && r.admission.KindSaturated(w.device.Kind, closeAt) {
				continue
			}
			avail := w.clock.Now()
			pred := math.Max(closeAt, avail) + w.svc[computed]
			if best < 0 || pred < bestPred || (pred == bestPred && avail < bestAvail) {
				best, bestPred, bestAvail = i, pred, avail
			}
		}
		if best >= 0 {
			return best
		}
	}
	return 0
}

func (r *serveReplay) dispatch(batch []serve.Request, closeAt float64) error {
	r.batches++
	r.hitDone, r.compDone = r.hitDone[:0], r.compDone[:0]
	r.gen++
	id := int64(batch[0].ID)
	n := len(batch)
	if cap(r.keys) < n {
		r.keys, r.ready, r.hit = make([]serve.CacheKey, n), make([]float64, n), make([]bool, n)
	}
	keys, ready, hit := r.keys[:n], r.ready[:n], r.hit[:n]
	for i, q := range batch {
		keys[i] = serve.CacheKey{Vertex: q.Vertex, Version: 1}
		r.waits = append(r.waits, closeAt-q.Arrival)
	}
	sp := r.rec.begin("serve.cache", id)
	r.cache.GetMany(keys, ready, hit, nil)
	r.rec.end(sp)
	order := r.order[:0]
	for i, q := range batch {
		if hit[i] {
			r.answer(q, math.Max(closeAt, ready[i]), false)
			continue
		}
		if r.vertexGen[q.Vertex] != r.gen {
			r.vertexGen[q.Vertex] = r.gen
			order = append(order, q.Vertex)
		}
	}
	r.order = order
	kind := hw.CPU
	if len(order) > 0 {
		w := r.pool[r.route(len(order), closeAt)]
		logits, st, err := w.runBatch(r.rec, r.counts, r.cfg, order, id)
		if err != nil {
			return err
		}
		done := w.clock.AdvanceAfter(closeAt, st)
		kind = w.device.Kind
		r.putKeys, r.putEmbs = r.putKeys[:0], r.putEmbs[:0]
		for i, v := range order {
			r.putKeys = append(r.putKeys, serve.CacheKey{Vertex: v, Version: 1})
			r.putEmbs = append(r.putEmbs, logits.Row(i))
		}
		sp := r.rec.begin("serve.cache", id)
		r.cache.PutMany(r.putKeys, r.putEmbs, done)
		r.rec.end(sp)
		for i, q := range batch {
			if !hit[i] {
				r.answer(q, done, true)
				r.computed++
			}
		}
	}
	sp = r.rec.begin("serve.admission", id)
	r.admission.DispatchedKind(hw.CPU, r.hitDone)
	r.admission.DispatchedKind(kind, r.compDone)
	r.rec.end(sp)
	return nil
}

// replayStats is the replay's summary in serve.Stats terms, for checking
// it against the real run.
type replayStats struct {
	served, rejected, computed, batches int
	p50, p99, batchWaitP99              float64
	hits, evictions, lookups            int64
}

func (r *serveReplay) stats() replayStats {
	lat := append([]float64(nil), r.lat...)
	sort.Float64s(lat)
	waits := append([]float64(nil), r.waits...)
	sort.Float64s(waits)
	hits, misses, ev := r.cache.Stats()
	return replayStats{
		served: len(r.lat), rejected: r.rejected, computed: r.computed, batches: r.batches,
		p50: nearestRank(lat, 0.5), p99: nearestRank(lat, 0.99), batchWaitP99: nearestRank(waits, 0.99),
		hits: hits, evictions: ev, lookups: hits + misses,
	}
}
