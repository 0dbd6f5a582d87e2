package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/gnn"
	"repro/internal/hw"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// heldOutSeed is never used while tuning the benchmark or a change: a later
// performance claim is re-checked on it (choosing-metrics §6.3).
const heldOutSeed = 90017

// workload is one named input set of the benchmark: its fixture, its loop,
// and the record of why it exists and which layers it loads.
type workload struct {
	name  string
	why   string // one line, mirrored in BENCHMARK.json
	loop  string // "closed" or "open", with its rate or client count
	heavy []string
	light []string

	train *trainSpec
	serve *serveSpec
}

// trainSpec fixes a training workload's fixture.
type trainSpec struct {
	vertices, edges int64
	trainFrac       float64
	dims            []int
	batch           int
	fanouts         []int
	plat            func() hw.Platform
	nodes           int // >1 runs cluster.MultiNode
	pipeline        core.PipelineMode
}

// serveSpec fixes a serving workload's fixture and offered load.
type serveSpec struct {
	vertices, edges int64
	dims            []int
	fanouts         []int
	requests        int     // requests per serve.Run
	cohorts         bool    // three-cohort WorkloadSpec; false: legacy RequestStream
	zipf            float64 // legacy stream only
	formation       string
	windowSec       float64
	// ladder is the fixed set of absolute offered rates (req/s, virtual
	// clock); nominal indexes the rung latency is reported at.
	ladder  []float64
	nominal int
}

// The serving pool, batcher, admission and cache settings both serving
// workloads share, and the per-class p99 latency limits (interactive,
// standard, bulk) every rung is judged by.
const (
	maxBatch    = 32
	queueCap    = 1024
	cacheSize   = 4096
	cacheShards = 4
)

var sloLimits = [serve.NumClasses]float64{1e-3, 2e-3, 5e-3}

// workloads is the benchmark's workload table, in run order.
var workloads = []*workload{
	{
		name: "train-fpga",
		why: "few large closed-loop iterations on CPU+4xU250 (SAGE 100-64-16, 50k-vertex RMAT, batch 256): " +
			"FPGA dataflow, sampler and DRM dominate, no network",
		loop:  "closed loop, one client: each iteration waits for the previous one's gradient sync",
		heavy: []string{"accel", "tensor", "gnn", "sampler", "drm"},
		light: []string{"optim", "core", "datagen"},
		train: &trainSpec{
			vertices: 50_000, edges: 500_000, trainFrac: 0.266, dims: []int{100, 64, 16},
			batch: 256, fanouts: []int{10, 5}, plat: hw.CPUFPGAPlatform, nodes: 1,
			pipeline: core.PipelinePrefetch,
		},
	},
	{
		name: "train-cluster",
		why: "executed 4-node MultiNode of CPU+4xA5000 (SAGE 100-256-16, batch 32): many small iterations with ring " +
			"all-reduce and remote features; bypasses accel",
		loop:  "closed loop, 4 lock-stepped nodes: every iteration ends in a ring all-reduce",
		heavy: []string{"cluster", "optim", "gnn", "tensor", "graph"},
		light: []string{"sampler", "drm", "datagen"},
		train: &trainSpec{
			vertices: 40_000, edges: 400_000, trainFrac: 0.26, dims: []int{100, 256, 16},
			batch: 32, fanouts: []int{10, 5}, plat: hw.CPUGPUPlatform, nodes: 4,
			pipeline: core.PipelineSerial,
		},
	},
	{
		name: "serve-hot",
		why: "open-loop 3-cohort SLO mix (Zipf 1.1/1.1/0.8, priority formation) on 4 FPGA + CPU peer, 20k vertices: " +
			"cache hits and the per-request control plane dominate",
		loop:  "open loop: fixed ladder of offered rates, latency from each request's scheduled arrival",
		heavy: []string{"serve", "perfmodel", "gnn"},
		light: []string{"sampler", "tensor", "accel"},
		serve: &serveSpec{
			vertices: 20_000, edges: 200_000, dims: []int{100, 64, 16}, fanouts: []int{10, 5},
			requests: 100_000, cohorts: true, formation: serve.FormationPriority,
			windowSec: 100e-6,
			ladder:    []float64{25e3, 50e3, 75e3, 100e3, 150e3, 200e3, 300e3, 400e3},
			nominal:   1,
		},
	},
	{
		name: "serve-cold",
		why: "open-loop uniform Poisson stream over 100k vertices (fcfs): nearly every lookup misses, inserts and evicts; " +
			"sampler, gather and FPGA forward dominate",
		loop:  "open loop: fixed ladder of offered rates, latency from each request's scheduled arrival",
		heavy: []string{"sampler", "tensor", "accel", "gnn", "core"},
		light: []string{"serve", "perfmodel"},
		serve: &serveSpec{
			vertices: 100_000, edges: 1_000_000, dims: []int{100, 64, 16}, fanouts: []int{10, 5},
			requests: 10_000, zipf: 0, formation: serve.FormationFCFS,
			windowSec: 200e-6,
			ladder:    []float64{50e3, 100e3, 200e3, 300e3, 400e3, 500e3, 600e3, 800e3},
			nominal:   1,
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// materialize builds a fixture's dataset from the workload seed. The RNG
// stream is the seed's alone, so the same seed always gives the same graph,
// features and labels.
func materialize(name string, vertices, edges int64, dims []int, trainFrac float64, seed uint64) (*datagen.Dataset, error) {
	spec := datagen.Spec{Name: name, NumVertices: vertices, NumEdges: edges, FeatDims: dims,
		TrainNodes: int64(float64(vertices) * trainFrac)}
	return datagen.Materialize(spec, trainFrac, tensor.NewRNG(seed))
}

// trainConfig is the engine configuration of a training workload.
func (t *trainSpec) config(ds *datagen.Dataset, seed uint64) core.Config {
	return core.Config{
		Plat: t.plat(), Data: ds,
		Model: gnn.Config{Kind: gnn.SAGE, Dims: t.dims},
		LR:    0.05, Momentum: 0.9,
		BatchSize: t.batch, Fanouts: t.fanouts,
		Hybrid: true, TFP: true, DRM: true,
		Pipeline: t.pipeline,
		Seed:     seed,
	}
}

// trainer is what the epoch loop drives: a single-node engine or a
// multi-node fleet, behind the statistics both report.
type trainer interface {
	epoch() (epochResult, error)
	replicaDrift() float64
}

type epochResult struct {
	loss, virtualSec, mteps float64
	iterations, targets     int
	netSync, netFetch       float64
	remoteRows              int
}

type engineTrainer struct {
	e       *core.Engine
	targets int // training targets per epoch
}

func (t *engineTrainer) epoch() (epochResult, error) {
	st, err := t.e.RunEpoch()
	if err != nil {
		return epochResult{}, err
	}
	return epochResult{
		loss: st.Loss, virtualSec: st.VirtualSec, mteps: st.MTEPS,
		iterations: st.Iterations, targets: t.targets,
	}, nil
}

func (t *engineTrainer) replicaDrift() float64 { return t.e.ReplicasInSync() }

type fleetTrainer struct {
	m *cluster.MultiNode
}

func (t *fleetTrainer) epoch() (epochResult, error) {
	st, err := t.m.RunEpoch()
	if err != nil {
		return epochResult{}, err
	}
	return epochResult{
		loss: st.Loss, virtualSec: st.VirtualSec, mteps: st.MTEPS,
		iterations: st.Iterations, targets: t.m.TrainPerNode() * t.m.Nodes(),
		netSync: st.NetSyncSec, netFetch: st.NetFetchSec, remoteRows: st.RemoteRows,
	}, nil
}

func (t *fleetTrainer) replicaDrift() float64 { return t.m.ReplicasInSync() }

// buildTrainer constructs the engine or fleet of a training workload.
func (t *trainSpec) build(ds *datagen.Dataset, seed uint64) (trainer, error) {
	cfg := t.config(ds, seed)
	if t.nodes <= 1 {
		e, err := core.NewEngine(cfg)
		if err != nil {
			return nil, err
		}
		return &engineTrainer{e: e, targets: len(ds.TrainIdx)}, nil
	}
	m, err := cluster.NewMultiNode(cluster.MultiNodeConfig{Nodes: t.nodes, Net: hw.Ethernet100G(), Node: cfg})
	if err != nil {
		return nil, err
	}
	return &fleetTrainer{m: m}, nil
}

// serveFixture materializes a serving workload's dataset and model. The
// model is freshly initialised (serving cost does not depend on how well
// the weights are trained).
func (s *serveSpec) fixture(name string, seed uint64) (*datagen.Dataset, *gnn.Model, error) {
	ds, err := materialize(name, s.vertices, s.edges, s.dims, 0.5, seed)
	if err != nil {
		return nil, nil, err
	}
	m, err := gnn.NewModel(gnn.Config{Kind: gnn.SAGE, Dims: s.dims}, tensor.NewRNG(seed^0x5eed))
	if err != nil {
		return nil, nil, err
	}
	return ds, m, nil
}

// config is the serve.Config of one run at the given absolute offered rate.
func (s *serveSpec) config(ds *datagen.Dataset, m *gnn.Model, rate float64, seed uint64) serve.Config {
	cfg := serve.Config{
		Plat: hw.CPUFPGAPlatform(), Data: ds, Model: m, Fanouts: s.fanouts,
		NumRequests: s.requests, RatePerSec: rate, ZipfExponent: s.zipf,
		MaxBatch: maxBatch, WindowSec: s.windowSec, Workers: 4, CPUPeer: true,
		Formation: s.formation, QueueCap: queueCap,
		CacheSize: cacheSize, CacheShards: cacheShards,
		Seed: seed,
	}
	for c, lim := range sloLimits {
		cfg.SLOTargets = append(cfg.SLOTargets, serve.ClassSLO{Class: serve.SLOClass(c), TargetSec: lim})
	}
	if s.cohorts {
		// The three cohorts of the SLO-class extension experiment, scaled to
		// the rung's absolute rate.
		cfg.Workload = &serve.WorkloadSpec{Cohorts: []serve.Cohort{
			{Name: "web", Class: serve.ClassInteractive, Dist: serve.DistPoisson,
				RatePerSec: 0.25 * rate, Zipf: 1.1,
				Phases: []serve.RatePhase{{DurationSec: 0.02, Mult: 2}, {DurationSec: 0.02, Mult: 0.5}}},
			{Name: "api", Class: serve.ClassStandard, Dist: serve.DistGamma, Shape: 0.5,
				RatePerSec: 0.45 * rate, Zipf: 1.1},
			{Name: "etl", Class: serve.ClassBulk, Dist: serve.DistWeibull, Shape: 0.7,
				RatePerSec: 0.30 * rate, Zipf: 0.8},
		}}
	}
	return cfg
}
