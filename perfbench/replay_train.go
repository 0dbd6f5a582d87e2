package main

import (
	"fmt"
	"sync"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/drm"
	"repro/internal/gnn"
	"repro/internal/hw"
	"repro/internal/optim"
	"repro/internal/perfmodel"
	"repro/internal/sampler"
	"repro/internal/tensor"
)

// layerCounts are the per-layer work counts a traced replay accumulates at
// the same call sites its spans wrap.
type layerCounts struct {
	edges       float64 // sampled edges traversed
	gatherBytes float64 // gathered rows x dim x 4
	flops       float64 // gnn forward, backward and inference passes
	fpga        accel.ForwardStats
	cpuShare    float64 // summed CPU share of the global batch
	iterations  int
	moves       int // DRM work and thread moves
}

// passFlops counts a pass's multiply-adds as 2 flops each: the neighbour
// aggregation (edges x input width) and the dense update (rows x input
// width x output width; GraphSAGE concatenates self and mean, doubling the
// input width). A backward pass does the dense product twice (weight and
// input gradients) and the aggregation once.
func passFlops(cfg gnn.Config, mb *sampler.MiniBatch, backward bool) float64 {
	k := 1.0
	if cfg.Kind == gnn.SAGE {
		k = 2
	}
	dense := 2.0
	if backward {
		dense = 4
	}
	var f float64
	for l, b := range mb.Blocks {
		fin, fout := float64(cfg.Dims[l]), float64(cfg.Dims[l+1])
		f += 2*float64(b.NumEdges())*fin + dense*float64(len(b.Dst))*k*fin*fout
	}
	return f
}

// sizesOf converts a sampled mini-batch into the perfmodel size vectors, as
// the runtime does before pricing it.
func sizesOf(mb *sampler.MiniBatch) perfmodel.Sizes {
	L := len(mb.Blocks)
	s := perfmodel.Sizes{VL: make([]float64, L+1), EL: make([]float64, L)}
	s.VL[0] = float64(len(mb.Blocks[0].Src))
	for l := 0; l < L; l++ {
		s.VL[l+1] = float64(len(mb.Blocks[l].Dst))
		s.EL[l] = float64(mb.Blocks[l].NumEdges())
	}
	return s
}

// trainReplay replays one core.Engine's iterations through the modules'
// exported functions, with a span around each call. It is built from the
// engine's configuration and consumes the seed's random streams in the
// engine's order, so it samples the same batches and — priced and balanced
// the same way — assigns the same shares. Trainers run one after another
// on the calling goroutine, so spans never overlap and the per-layer self
// times add up to the traced wall time.
type trainReplay struct {
	rec      *recorder
	counts   *layerCounts
	cfg      core.Config
	pm       *perfmodel.Model
	smp      *sampler.Sampler
	batcher  *sampler.Batcher
	rng      *tensor.RNG
	replicas []*gnn.Model
	opts     []*optim.SGD
	backends []*accel.Backend // nil for trainers that are not FPGA dataflow
	assign   perfmodel.Assignment
	drm      *drm.Engine
	clock    *core.PipelineClock

	// Software-pipelined epochs price and split iteration i+1 against the
	// assignment from before DRM reacts to iteration i.
	snap    perfmodel.Assignment
	pending []int32

	mbs    []*sampler.MiniBatch
	stage  []*tensor.Workspace
	stepWS []*tensor.Workspace
	fst    []gnn.ForwardState
	grads  []*gnn.Gradients

	// remote counts a shard's input rows owned by other shards and
	// fetchSec prices them; both nil on a single node.
	remote   func(nodes []int32) int
	fetchSec func(rows int) float64
}

// iterOut is one iteration's local result before the global reduction.
type iterOut struct {
	stage   perfmodel.StageTimes
	grad    *gnn.Gradients
	lossSum float64
	targets int
	edges   float64
}

func newTrainReplay(cfg core.Config, networked bool, rec *recorder, counts *layerCounts) (*trainReplay, error) {
	pm, err := perfmodel.New(cfg.Plat, perfmodel.Workload{
		Spec: cfg.Data.Spec, Model: cfg.Model.Kind, BatchSize: cfg.BatchSize, Fanouts: cfg.Fanouts,
	})
	if err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(cfg.Seed)
	smp, err := sampler.New(cfg.Data.Graph, cfg.Fanouts, cfg.Data.Labels)
	if err != nil {
		return nil, err
	}
	nAcc := len(cfg.Plat.Accels)
	total := min(cfg.BatchSize*max(1, nAcc), len(cfg.Data.TrainIdx))
	batcher, err := sampler.NewBatcher(cfg.Data.TrainIdx, total, rng.Split())
	if err != nil {
		return nil, err
	}
	m0, err := gnn.NewModel(cfg.Model, rng.Split())
	if err != nil {
		return nil, err
	}
	r := &trainReplay{
		rec: rec, counts: counts, cfg: cfg, pm: pm, smp: smp, batcher: batcher, rng: rng,
		assign: pm.InitialAssignment(cfg.Hybrid),
		clock:  core.NewPipelineClock(cfg.TFP, networked),
	}
	for i := 0; i <= nAcc; i++ {
		opt, err := optim.NewSGD(cfg.LR, cfg.Momentum)
		if err != nil {
			return nil, err
		}
		m := &gnn.Model{Cfg: cfg.Model, Params: m0.Params.Clone()}
		r.replicas = append(r.replicas, m)
		r.opts = append(r.opts, opt)
		var bk *accel.Backend
		if i > 0 && cfg.Plat.Accels[i-1].Kind == hw.FPGA {
			b := accel.U250Backend(cfg.Model.Dims[0])
			bk = &b
		}
		r.backends = append(r.backends, bk)
		r.mbs = append(r.mbs, &sampler.MiniBatch{})
		r.stage = append(r.stage, tensor.NewWorkspace())
		r.stepWS = append(r.stepWS, tensor.NewWorkspace())
		r.grads = append(r.grads, gnn.NewGradients(m.Params))
	}
	r.fst = make([]gnn.ForwardState, nAcc+1)
	if cfg.DRM {
		r.drm = drm.New(cfg.Plat.TotalCPUCores())
		r.drm.FusedPrefetch = !cfg.TFP
	}
	return r, nil
}

func (r *trainReplay) lagged() bool { return r.cfg.Pipeline == core.PipelinePrefetch }

// next draws the next global batch from the batcher.
func (r *trainReplay) next(it int) []int32 {
	sp := r.rec.begin("sampler", int64(it))
	defer r.rec.end(sp)
	return r.batcher.Next()
}

// beginEpoch returns the epoch's iteration count and, for pipelined epochs,
// captures the first iteration's inputs.
func (r *trainReplay) beginEpoch() int {
	if r.lagged() {
		r.snap = r.assign.Clone()
		r.pending = r.next(0)
	}
	return r.batcher.BatchesPerEpoch()
}

// shares splits targets by the assignment, as the runtime does: index 0 is
// the CPU trainer, the last accelerator takes the remainder.
func shares(a perfmodel.Assignment, nAcc int, targets []int32) [][]int32 {
	out := make([][]int32, nAcc+1)
	total := a.TotalBatch()
	if total == 0 || nAcc == 0 {
		out[0] = targets
		return out
	}
	cursor := 0
	take := func(n int) []int32 {
		n = min(n, len(targets)-cursor)
		s := targets[cursor : cursor+n]
		cursor += n
		return s
	}
	out[0] = take(len(targets) * a.CPUBatch / total)
	for i := 0; i < nAcc; i++ {
		if i == nAcc-1 {
			out[i+1] = targets[cursor:]
		} else {
			out[i+1] = take(len(targets) * a.AccelBatch[i] / total)
		}
	}
	return out
}

// local runs iteration it up to the locally averaged gradient: sampling,
// feature gather, pricing, every trainer's step, and the trainers' reduce.
func (r *trainReplay) local(it, iters int) (*iterOut, error) {
	cfg := r.cfg
	nAcc := len(cfg.Plat.Accels)
	cur, targets := r.snap, r.pending
	if r.lagged() {
		if it+1 < iters {
			r.snap = r.assign.Clone()
			r.pending = r.next(it + 1)
		}
	} else {
		cur, targets = r.assign.Clone(), r.next(it)
	}
	sh := shares(cur, nAcc, targets)
	r.counts.cpuShare += float64(len(sh[0])) / float64(len(targets))
	r.counts.iterations++

	out := &iterOut{}
	batches := make([]*sampler.MiniBatch, nAcc+1)
	var sampCPU, sampAccel float64
	for i, share := range sh {
		if len(share) == 0 {
			continue
		}
		sp := r.rec.begin("sampler", int64(it))
		err := r.smp.SampleInto(r.mbs[i], share, r.rng)
		r.rec.end(sp)
		if err != nil {
			return nil, err
		}
		batches[i] = r.mbs[i]
		edges := float64(batches[i].EdgesTraversed())
		out.edges += edges
		if i > 0 && cur.AccelSampleFrac > 0 {
			sampAccel += edges * cur.AccelSampleFrac
			sampCPU += edges * (1 - cur.AccelSampleFrac)
		} else {
			sampCPU += edges
		}
	}
	r.counts.edges += out.edges
	st := perfmodel.StageTimes{
		SampCPU:   r.pm.SampleTimeCPUEdges(sampCPU, cur.SampThreads),
		SampAccel: r.pm.SampleTimeAccelEdges(sampAccel / float64(max(1, nAcc))),
		Sync:      r.pm.SyncTime(),
	}
	if nAcc > 0 {
		st.PerAccel = make([]perfmodel.DeviceStage, nAcc)
	}
	loadRows := make([]float64, nAcc)
	feats := make([]*tensor.Matrix, nAcc+1)
	remoteRows := 0
	for i, mb := range batches {
		if mb == nil {
			continue
		}
		in := mb.InputNodes()
		r.stage[i].Reset()
		x := r.stage[i].Get(len(in), cfg.Model.Dims[0])
		sp := r.rec.begin("tensor.gather", int64(it))
		tensor.GatherRows(x, cfg.Data.Features, in)
		r.rec.end(sp)
		r.counts.gatherBytes += float64(len(in) * x.Cols * 4)
		feats[i] = x
		if i > 0 {
			sz := sizesOf(mb)
			loadRows[i-1] = sz.VL[0]
			tt := r.pm.TransferTimeDev(i-1, sz)
			st.PerAccel[i-1].Trans = tt
			st.Trans = max(st.Trans, tt)
		}
		if r.remote != nil {
			remoteRows += r.remote(in)
		}
	}
	st.Load = r.pm.LoadTimeForDeviceRows(loadRows, cur.LoadThreads)
	if r.fetchSec != nil {
		st.NetFetch = r.fetchSec(remoteRows)
	}

	// Stage 4: every trainer's step, then the weighted reduce across them.
	active, totalTargets := 0, 0
	for _, mb := range batches {
		if mb != nil {
			active++
			totalTargets += len(mb.Targets)
		}
	}
	var submit []*gnn.Gradients
	for i, mb := range batches {
		if mb == nil {
			continue
		}
		prop, loss, err := r.step(it, i, mb, feats[i])
		if err != nil {
			return nil, err
		}
		out.lossSum += loss * float64(len(mb.Targets))
		out.targets += len(mb.Targets)
		if i == 0 {
			st.TrainCPU = prop
		} else {
			st.PerAccel[i-1].Train = prop
			st.TrainAcc = max(st.TrainAcc, prop)
		}
		if active > 1 {
			r.grads[i].Scale(float32(len(mb.Targets)) * float32(active) / float32(totalTargets))
		}
		submit = append(submit, r.grads[i])
	}
	out.stage = st
	if active == 1 {
		out.grad = submit[0]
	} else if active > 1 {
		g, err := r.reduce(it, submit)
		if err != nil {
			return nil, err
		}
		out.grad = g
	}
	return out, nil
}

// step runs trainer i's forward (through the FPGA dataflow first on an FPGA
// trainer), loss and backward, and returns its virtual propagation time and
// mean loss.
func (r *trainReplay) step(it, i int, mb *sampler.MiniBatch, x *tensor.Matrix) (float64, float64, error) {
	cfg := r.cfg
	m := r.replicas[i]
	var fs *accel.ForwardStats
	if bk := r.backends[i]; bk != nil {
		sp := r.rec.begin("accel.forward", int64(it))
		_, s, err := bk.Forward(m, mb, x)
		r.rec.end(sp)
		if err != nil {
			return 0, 0, fmt.Errorf("fpga trainer %d: %w", i, err)
		}
		fs = s
		r.counts.fpga.Add(*s)
	}
	ws := r.stepWS[i]
	ws.Reset()
	sp := r.rec.begin("gnn.forward", int64(it))
	err := m.ForwardWS(ws, &r.fst[i], mb, x)
	var loss float64
	var dLogits *tensor.Matrix
	if err == nil {
		logits := r.fst[i].Logits
		dLogits = ws.Get(logits.Rows, logits.Cols)
		loss, _ = tensor.SoftmaxCrossEntropy(dLogits, logits, mb.Labels)
	}
	r.rec.end(sp)
	if err != nil {
		return 0, 0, err
	}
	sp = r.rec.begin("gnn.backward", int64(it))
	err = m.BackwardWS(ws, &r.fst[i], dLogits, r.grads[i])
	r.rec.end(sp)
	if err != nil {
		return 0, 0, err
	}
	r.counts.flops += passFlops(cfg.Model, mb, false) + passFlops(cfg.Model, mb, true)

	sz := sizesOf(mb)
	switch {
	case i == 0:
		share := float64(r.assign.TrainThreads) / float64(cfg.Plat.TotalCPUCores())
		if !cfg.Hybrid {
			share = 1
		}
		return r.pm.PropWithOverheads(cfg.Plat.CPU, sz, share), loss, nil
	case fs != nil:
		dev := cfg.Plat.Accels[i-1]
		return perfmodel.DeviceOverheads(dev, fs.Sec+r.pm.PropBackwardFor(dev, sz, 1)), loss, nil
	default:
		return r.pm.PropWithOverheads(cfg.Plat.Accels[i-1], sz, 1), loss, nil
	}
}

// reduce averages gradients through one optim.Synchronizer round, each
// rank submitting from its own goroutine as the trainers do.
func (r *trainReplay) reduce(it int, grads []*gnn.Gradients) (*gnn.Gradients, error) {
	sp := r.rec.begin("optim.reduce", int64(it))
	defer r.rec.end(sp)
	s, err := optim.NewSynchronizer(len(grads))
	if err != nil {
		return nil, err
	}
	out := make([]*gnn.Gradients, len(grads))
	var wg sync.WaitGroup
	for rank, g := range grads {
		wg.Add(1)
		go func(rank int, g *gnn.Gradients) {
			defer wg.Done()
			out[rank] = s.Submit(rank, g)
		}(rank, g)
	}
	wg.Wait()
	return out[0], nil
}

// apply consumes an iteration: the weight update on every replica, the
// clock charge and the DRM reaction.
func (r *trainReplay) apply(it int, out *iterOut, global *gnn.Gradients, netSec float64) {
	out.stage.NetSync = netSec
	if global != nil {
		sp := r.rec.begin("optim.step", int64(it))
		for i, m := range r.replicas {
			r.opts[i].Step(m.Params, global)
		}
		r.rec.end(sp)
	}
	r.clock.Advance(out.stage)
	if r.drm != nil {
		before := r.drm.MovesWork + r.drm.MovesThread
		sp := r.rec.begin("drm.adjust", int64(it))
		r.assign = r.drm.Adjust(it, out.stage, r.assign)
		r.rec.end(sp)
		r.counts.moves += r.drm.MovesWork + r.drm.MovesThread - before
	}
}

// replayEpoch is one epoch's loss and virtual time.
type replayEpoch struct {
	loss, virtualSec float64
}

// fleetReplay replays a single node, or the lock-stepped shards of a
// multi-node fleet whose local gradients are averaged across nodes each
// iteration.
type fleetReplay struct {
	nodes   []*trainReplay
	ringSec float64 // virtual all-reduce charge per iteration
}

// epoch replays one epoch under a root span.
func (f *fleetReplay) epoch(rec *recorder, id int64) (replayEpoch, error) {
	root := rec.begin("core.epoch", id)
	defer rec.end(root)
	iters := 0
	var starts []float64
	for _, n := range f.nodes {
		iters = n.beginEpoch()
		starts = append(starts, n.clock.Now())
	}
	var lossSum float64
	var targets int
	outs := make([]*iterOut, len(f.nodes))
	for it := 0; it < iters; it++ {
		for k, n := range f.nodes {
			o, err := n.local(it, iters)
			if err != nil {
				return replayEpoch{}, err
			}
			outs[k] = o
			lossSum += o.lossSum
			targets += o.targets
		}
		global := outs[0].grad
		if len(f.nodes) > 1 {
			local := make([]*gnn.Gradients, len(outs))
			for k, o := range outs {
				local[k] = o.grad
			}
			g, err := f.nodes[0].reduce(it, local)
			if err != nil {
				return replayEpoch{}, err
			}
			global = g
		}
		for k, n := range f.nodes {
			n.apply(it, outs[k], global, f.ringSec)
		}
	}
	var virt float64
	for k, n := range f.nodes {
		virt = max(virt, n.clock.Now()-starts[k])
	}
	return replayEpoch{loss: lossSum / float64(max(1, targets)), virtualSec: virt}, nil
}
