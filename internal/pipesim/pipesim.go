// Package pipesim is the execution simulator for HyScale-GNN's 4-stage
// training pipeline (paper Fig. 4/7): Sampling → Feature Loading → Data
// Transfer → GNN Propagation. It advances a max-plus recurrence over
// iterations — stage s of iteration i starts when stage s−1 of iteration i
// and stage s of iteration i−1 have both finished — which models both the
// pipeline fill and the steady state.
//
// Unlike the analytic model (internal/perfmodel), the simulator charges the
// overheads §VI-C identifies as model error: accelerator kernel-launch
// latency, dataflow pipeline flushing, per-iteration runtime coordination
// (barriers/handshakes), and measurement noise. The gap between the two is
// exactly the paper's Fig. 8 "predicted vs actual" experiment.
package pipesim

import (
	"fmt"
	"math"

	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/tensor"
)

// Mode selects which of the paper's optimizations are active (the Fig. 11
// ablation axes).
type Mode struct {
	Hybrid bool // CPU trainer participates (vs. accelerator-only)
	DRM    bool // dynamic resource management adjusts the mapping at runtime
	TFP    bool // two-stage feature prefetching (split Load / Transfer stages)
	// NoOverlap disables inter-stage pipelining entirely: each iteration is
	// sample → load → transfer → train, strictly sequential. Used for the
	// PyG-style multi-GPU baseline, which trains through a synchronous
	// dataloader loop.
	NoOverlap bool
}

// Controller adjusts the task mapping between iterations; the DRM engine
// implements it. Adjust receives the stage times measured in iteration i and
// returns the assignment for iteration i+1.
type Controller interface {
	Adjust(iter int, measured perfmodel.StageTimes, a perfmodel.Assignment) perfmodel.Assignment
}

// Config drives one simulated training epoch.
type Config struct {
	Model *perfmodel.Model
	Mode  Mode
	Ctrl  Controller // nil for static mapping
	Seed  uint64
	// Iterations overrides the epoch length (0 = derive from TrainNodes).
	Iterations int
	// NoiseStd is the multiplicative measurement noise per stage.
	// Zero selects the default (0.02); pass a negative value to disable
	// noise entirely.
	NoiseStd float64
	// InitialAssign overrides the design-phase mapping the simulation starts
	// from (nil = Model.InitialAssignment). Used to study how the DRM engine
	// recovers from a naive split — e.g. uniform shares across unequal
	// devices.
	InitialAssign *perfmodel.Assignment
}

// Result reports a simulated epoch.
type Result struct {
	EpochSec    float64
	IterSec     []float64 // completion-time deltas per iteration
	MeanStages  perfmodel.StageTimes
	FinalAssign perfmodel.Assignment
	MTEPS       float64
	// Trace holds the per-iteration stage times (after overheads/noise),
	// the raw series behind the figures; feed it to trace.Recorder for CSV.
	Trace []perfmodel.StageTimes
}

// Run simulates one epoch and returns the timing result.
func Run(cfg Config) (*Result, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("pipesim: nil model")
	}
	m := cfg.Model
	assign := m.InitialAssignment(cfg.Mode.Hybrid)
	if cfg.InitialAssign != nil {
		assign = cfg.InitialAssign.Clone()
	}
	iters := cfg.Iterations
	if iters <= 0 {
		iters = m.Iterations(assign)
	}
	if iters <= 0 {
		return nil, fmt.Errorf("pipesim: zero iterations")
	}
	noiseStd := cfg.NoiseStd
	if noiseStd == 0 {
		noiseStd = 0.02
	} else if noiseStd < 0 {
		noiseStd = 0
	}
	rng := tensor.NewRNG(cfg.Seed)

	numStages := 3 // samp, prefetch(load+trans), prop
	if cfg.Mode.TFP {
		numStages = 4 // samp, load, trans, prop
	}
	prevDone := make([]float64, numStages)
	res := &Result{IterSec: make([]float64, 0, iters)}
	var sum perfmodel.StageTimes
	var totalEdges float64
	var lastFinish float64

	for i := 0; i < iters; i++ {
		st := m.Stages(assign)
		applyOverheads(&st, m.Plat, assign, rng, noiseStd)
		sum = addStages(sum, st)
		res.Trace = append(res.Trace, st)

		stages := stageVector(st, cfg.Mode.TFP)
		if cfg.Mode.NoOverlap {
			var t float64
			for _, s := range stages {
				t += s
			}
			lastFinish += t
			res.IterSec = append(res.IterSec, t)
		} else {
			done := make([]float64, numStages)
			prev := 0.0
			for s := 0; s < numStages; s++ {
				start := math.Max(prev, prevDone[s])
				done[s] = start + stages[s]
				prev = done[s]
			}
			res.IterSec = append(res.IterSec, done[numStages-1]-lastFinish)
			lastFinish = done[numStages-1]
			prevDone = done
		}

		if assign.CPUBatch > 0 {
			totalEdges += m.Work.EdgesPerBatch(assign.CPUBatch)
		}
		for _, b := range assign.AccelBatch {
			if b > 0 {
				totalEdges += m.Work.EdgesPerBatch(b)
			}
		}
		if cfg.Mode.DRM && cfg.Ctrl != nil {
			assign = cfg.Ctrl.Adjust(i, st, assign)
		}
	}
	res.EpochSec = lastFinish
	res.FinalAssign = assign
	res.MeanStages = scaleStages(sum, 1/float64(iters))
	if res.EpochSec > 0 {
		res.MTEPS = totalEdges / res.EpochSec / 1e6
	}
	return res, nil
}

// applyOverheads adds the simulator-only costs to the analytic stage times.
func applyOverheads(st *perfmodel.StageTimes, plat hw.Platform, a perfmodel.Assignment,
	rng *tensor.RNG, noiseStd float64) {
	// The analytic model omits these costs (paper §VI-C): the protocol
	// handshake barrier, shared with the executing runtime, and the
	// per-device accelerator overheads of perfmodel.DeviceOverheads.
	barrier := perfmodel.RuntimeBarrierSec

	// Accelerator trainers: framework overhead + kernel launches + flush,
	// charged per device through the per-device stage vector — a mixed fleet
	// pays each device's own stack, not the first device's. (For homogeneous
	// fleets this equals the old busiest-clone charge. Stages always fills
	// PerAccel when the fleet is non-empty, so this is the only path.)
	st.TrainAcc = 0
	for i := range st.PerAccel {
		if i >= len(plat.Accels) || st.PerAccel[i].Train <= 0 {
			continue
		}
		st.PerAccel[i].Train = perfmodel.DeviceOverheads(plat.Accels[i], st.PerAccel[i].Train)
		st.TrainAcc = math.Max(st.TrainAcc, st.PerAccel[i].Train)
	}
	// CPU trainer: host framework overhead.
	if st.TrainCPU > 0 {
		st.TrainCPU += plat.CPU.FrameworkOverheadMs * 1e-3
	}
	// One multiplicative noise draw per stage per iteration: the whole stage
	// jitters together (a slow iteration is slow for every device), so the
	// per-device entries share the aggregate's factor and keep the invariant
	// that the aggregates are the per-device maxima — the DRM engine's
	// intra-fleet move sees the same measurement jitter the aggregates carry.
	noiseF := func(t float64) (float64, float64) {
		if t <= 0 {
			return t, 1
		}
		f := 1 + noiseStd*rng.NormFloat64()
		return t * f, f
	}
	noise := func(t float64) float64 { n, _ := noiseF(t); return n }
	st.SampCPU = noise(st.SampCPU) + barrier
	st.SampAccel = noise(st.SampAccel)
	st.Load = noise(st.Load) + barrier
	var fTrans, fTrain float64
	st.Trans, fTrans = noiseF(st.Trans)
	st.Trans += barrier
	st.TrainCPU = noise(st.TrainCPU)
	st.TrainAcc, fTrain = noiseF(st.TrainAcc)
	st.TrainAcc += barrier
	for i := range st.PerAccel {
		if st.PerAccel[i].Trans > 0 {
			st.PerAccel[i].Trans = st.PerAccel[i].Trans*fTrans + barrier
		}
		if st.PerAccel[i].Train > 0 {
			st.PerAccel[i].Train = st.PerAccel[i].Train*fTrain + barrier
		}
	}
}

// stageVector flattens StageTimes into the pipeline's stage sequence.
func stageVector(st perfmodel.StageTimes, tfp bool) []float64 {
	samp := math.Max(st.SampCPU, st.SampAccel)
	prop := math.Max(st.TrainCPU, st.TrainAcc) + st.Sync
	if tfp {
		return []float64{samp, st.Load, st.Trans, prop}
	}
	return []float64{samp, st.Load + st.Trans, prop}
}

func addStages(a, b perfmodel.StageTimes) perfmodel.StageTimes {
	out := perfmodel.StageTimes{
		SampCPU:   a.SampCPU + b.SampCPU,
		SampAccel: a.SampAccel + b.SampAccel,
		Load:      a.Load + b.Load,
		Trans:     a.Trans + b.Trans,
		TrainCPU:  a.TrainCPU + b.TrainCPU,
		TrainAcc:  a.TrainAcc + b.TrainAcc,
		Sync:      a.Sync + b.Sync,
	}
	if len(b.PerAccel) > 0 {
		out.PerAccel = make([]perfmodel.DeviceStage, len(b.PerAccel))
		for i, d := range b.PerAccel {
			out.PerAccel[i] = d
			if i < len(a.PerAccel) {
				out.PerAccel[i].Trans += a.PerAccel[i].Trans
				out.PerAccel[i].Train += a.PerAccel[i].Train
			}
		}
	}
	return out
}

func scaleStages(a perfmodel.StageTimes, s float64) perfmodel.StageTimes {
	out := perfmodel.StageTimes{
		SampCPU:   a.SampCPU * s,
		SampAccel: a.SampAccel * s,
		Load:      a.Load * s,
		Trans:     a.Trans * s,
		TrainCPU:  a.TrainCPU * s,
		TrainAcc:  a.TrainAcc * s,
		Sync:      a.Sync * s,
	}
	if len(a.PerAccel) > 0 {
		out.PerAccel = make([]perfmodel.DeviceStage, len(a.PerAccel))
		for i, d := range a.PerAccel {
			out.PerAccel[i] = perfmodel.DeviceStage{Trans: d.Trans * s, Train: d.Train * s}
		}
	}
	return out
}
