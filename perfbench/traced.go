package main

import (
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/serve"
)

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// tracedRun is one traced unit of work, summarised as it ends so its spans
// need not be kept: the root span's duration and each span name's self time.
type tracedRun struct {
	e2e  float64
	self map[string]float64
}

func summarize(rec *recorder) tracedRun { return tracedRun{rec.rootSeconds(), rec.selfTimes()} }

// ledger reports the traced run with the median e2e whole, so its layers
// add up to its e2e: each span name's self time feeds its layer metric and
// the root span's self time is the unattributed remainder.
func ledger(m map[string]float64, runs []tracedRun, untraced float64) {
	sort.Slice(runs, func(a, b int) bool { return runs[a].e2e < runs[b].e2e })
	r := runs[(len(runs)-1)/2]
	for name, self := range r.self {
		m[spanMetric[name]] += self
	}
	m["ledger.traced_e2e_s"] = r.e2e
	m["ledger.untraced_e2e_s"] = untraced
	m["ledger.overhead_s"] = r.e2e - untraced
	unattributed := m["core.unattributed_s"] + m["serve.unattributed_s"]
	if r.e2e > 0 {
		m["ledger.unattributed_share"] = unattributed / r.e2e
	}
}

// newFleetReplay builds the replay of a training workload's engine, or of
// every shard of its fleet, as cluster.NewMultiNode shards it.
func newFleetReplay(t *trainSpec, ds *datagen.Dataset, seed uint64, rec *recorder, counts *layerCounts) (*fleetReplay, error) {
	cfg := t.config(ds, seed)
	if t.nodes <= 1 {
		n, err := newTrainReplay(cfg, false, rec, counts)
		if err != nil {
			return nil, err
		}
		return &fleetReplay{nodes: []*trainReplay{n}}, nil
	}
	part, err := graph.PartitionGreedyBFS(ds.Graph, t.nodes)
	if err != nil {
		return nil, err
	}
	shards := make([][]int32, t.nodes)
	for _, v := range ds.TrainIdx {
		shards[part.Assign[v]] = append(shards[part.Assign[v]], v)
	}
	minSize := len(ds.TrainIdx)
	for _, s := range shards {
		minSize = min(minSize, len(s))
	}
	net := hw.Ethernet100G()
	featDim := ds.Spec.FeatDims[0]
	f := &fleetReplay{}
	for i := range shards {
		nodeCfg := cfg
		nodeCfg.Data = &datagen.Dataset{Spec: ds.Spec, Graph: ds.Graph, Features: ds.Features,
			Labels: ds.Labels, TrainIdx: shards[i][:minSize]}
		n, err := newTrainReplay(nodeCfg, true, rec, counts)
		if err != nil {
			return nil, err
		}
		rank := int32(i)
		n.remote = func(nodes []int32) int {
			c := 0
			for _, v := range nodes {
				if part.Assign[v] != rank {
					c++
				}
			}
			return c
		}
		n.fetchSec = func(rows int) float64 { return perfmodel.RemoteFetchSec(net, float64(rows), featDim, 4) }
		f.nodes = append(f.nodes, n)
	}
	f.ringSec = perfmodel.RingAllReduceSec(net, ringPayload(f.nodes[0]), t.nodes)
	return f, nil
}

// ringPayload is the gradient vector's size in bytes.
func ringPayload(n *trainReplay) float64 { return float64(n.replicas[0].Params.ModelBytes()) }

// runTrainTraced measures a training workload's layers: the real entry
// point untraced for the reference wall time, allocations and the fleet's
// network accounting, then the traced replay of the same epochs.
func runTrainTraced(w *workload, seed uint64, seconds float64) (*result, error) {
	t := w.train
	res := newResult()
	m := res.metrics
	start := time.Now()

	t0 := time.Now()
	ds, err := materialize(w.name, t.vertices, t.edges, t.dims, t.trainFrac, seed)
	if err != nil {
		return nil, err
	}
	m["datagen.materialize_s"] = time.Since(t0).Seconds()
	if t.nodes > 1 {
		t0 = time.Now()
		if _, err := graph.PartitionGreedyBFS(ds.Graph, t.nodes); err != nil {
			return nil, err
		}
		m["graph.partition_s"] = time.Since(t0).Seconds()
	}

	// Untraced reference: a warm-up epoch, then timed epochs.
	tr, err := t.build(ds, seed)
	if err != nil {
		return nil, err
	}
	var eps []epochResult
	var walls []float64
	var allocs uint64
	iters := 0
	for len(eps) < virtualEpochs {
		a0, t0 := mallocs(), time.Now()
		ep, err := tr.epoch()
		if err != nil {
			return nil, err
		}
		if len(eps) > 0 {
			walls = append(walls, time.Since(t0).Seconds())
			allocs += mallocs() - a0
			iters += ep.iterations
		}
		eps = append(eps, ep)
		res.attempted += ep.iterations
	}
	res.check(tr.replicaDrift() == 0, "replicas diverged by %v", tr.replicaDrift())
	m["core.allocs_per_iter"] = float64(allocs) / float64(iters)
	m["core.train_loss"] = eps[virtualEpochs-1].loss
	_, m["core.virtual_mteps"] = virtualRates(eps)
	ref := eps[1]
	if t.nodes > 1 {
		m["cluster.net_sync_virtual_s"] = ref.netSync
		m["cluster.net_fetch_virtual_s"] = ref.netFetch
		m["cluster.remote_rows"] = float64(ref.remoteRows)
	}

	// Traced replay: a warm-up epoch, then traced epochs until the window
	// closes. Counts come from the first traced epoch, which every run of a
	// seed replays identically.
	var counts layerCounts
	f, err := newFleetReplay(t, ds, seed, newRecorder(), &counts)
	if err != nil {
		return nil, err
	}
	var replayed []replayEpoch
	var runs []tracedRun
	var first layerCounts
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for len(runs) == 0 || time.Now().Before(deadline) {
		rec := newRecorder()
		for _, n := range f.nodes {
			n.rec = rec
		}
		counts = layerCounts{}
		ep, err := f.epoch(rec, int64(len(replayed)+1))
		if err != nil {
			return nil, err
		}
		if len(replayed) < 2 {
			replayed = append(replayed, ep)
		}
		if len(replayed) == 1 { // the warm-up epoch
			continue
		}
		if len(runs) == 0 {
			first = counts
		}
		runs = append(runs, summarize(rec))
	}
	// On one node the replay must reproduce the engine's epochs exactly; a
	// fleet's replay averages across nodes in rank order instead of the
	// ring's chunk order, so only its virtual clock must agree closely.
	for i, ep := range replayed {
		want := eps[i]
		if t.nodes <= 1 {
			res.check(ep.loss == want.loss && ep.virtualSec == want.virtualSec,
				"replay epoch %d: loss %v virtual %v, engine %v %v", i+1, ep.loss, ep.virtualSec, want.loss, want.virtualSec)
		} else {
			res.check(math.Abs(ep.virtualSec/want.virtualSec-1) < 0.01,
				"replay epoch %d: virtual %v, fleet %v", i+1, ep.virtualSec, want.virtualSec)
		}
	}
	ledger(m, runs, median(walls))

	m["sampler.edges"] = first.edges
	m["tensor.gather_bytes"] = first.gatherBytes
	m["gnn.flops"] = first.flops
	m["accel.agg_cycles"] = float64(first.fpga.AggCycles)
	m["accel.update_cycles"] = float64(first.fpga.UpdateCycles)
	m["accel.traffic_bytes"] = float64(first.fpga.TrafficBytes)
	m["drm.cpu_batch_share"] = first.cpuShare / float64(max(1, first.iterations))
	m["drm.reassignments"] = float64(first.moves)
	if t.nodes > 1 {
		// Each all-reduce sends 2(n-1)/n of the payload from each of n nodes.
		m["cluster.ring_bytes"] = float64(ref.iterations) * float64(2*(t.nodes-1)) * ringPayload(f.nodes[0])
	}
	return res, nil
}

// runServeTraced measures a serving workload's layers at its nominal rung:
// serve.Run untraced for the reference wall time, allocations and Stats,
// then the traced replay of the same stream.
func runServeTraced(w *workload, seed uint64, seconds float64) (*result, error) {
	s := w.serve
	res := newResult()
	m := res.metrics
	start := time.Now()

	t0 := time.Now()
	ds, model, err := s.fixture(w.name, seed)
	if err != nil {
		return nil, err
	}
	m["datagen.materialize_s"] = time.Since(t0).Seconds()
	cfg := s.config(ds, model, s.ladder[s.nominal], seed)

	var st *serve.Stats
	var walls []float64
	var allocs uint64
	for i := 0; i < 3; i++ {
		a0, t0 := mallocs(), time.Now()
		st, err = serve.Run(cfg)
		if err != nil {
			return nil, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		allocs += mallocs() - a0
		checkLedger(res, st, cfg.RatePerSec)
		res.attempted += st.Offered
		res.failed += st.Rejected + st.Shed
	}
	m["serve.allocs_per_request"] = float64(allocs) / float64(3*st.Offered)
	m["perfmodel.service_ratio"] = st.MeanServiceSec / st.Prediction.ServiceSec
	m["serve.cache_hit_ratio"] = st.HitRate
	m["serve.mean_batch"] = st.MeanBatch
	m["serve.computed_share"] = float64(st.Computed) / float64(st.Served)
	m["serve.rejected"] = float64(st.Rejected + st.Shed)
	m["serve.slo_attainment"] = sloAttainment(st)
	if s.cohorts {
		m["serve.interactive_p99_ms"] = 1e3 * st.PerClass[serve.ClassInteractive].P99Sec
	}
	var routed, busy [hw.KindCount]float64
	var workers [hw.KindCount]int
	for _, d := range st.PerDevice {
		routed[d.Kind] += float64(d.Batches)
		busy[d.Kind] += d.BusySec
		workers[d.Kind]++
	}
	for _, k := range []hw.Kind{hw.CPU, hw.FPGA} {
		name := strings.ToLower(k.String())
		if total := float64(len(st.Routes)); total > 0 {
			m["serve.route_share."+name] = routed[k] / total
		}
		if workers[k] > 0 && st.MakespanSec > 0 {
			m["serve.device_busy_share."+name] = busy[k] / float64(workers[k]) / st.MakespanSec
		}
	}

	// Traced replays until the window closes. Counts come from the first.
	var runs []tracedRun
	var rs replayStats
	var first layerCounts
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for len(runs) == 0 || time.Now().Before(deadline) {
		var counts layerCounts
		rec := newRecorder()
		r, err := newServeReplay(cfg, rec, &counts)
		if err != nil {
			return nil, err
		}
		if err := r.run(); err != nil {
			return nil, err
		}
		if len(runs) == 0 {
			first, rs = counts, r.stats()
		}
		runs = append(runs, summarize(rec))
	}
	res.check(rs.served == st.Served && rs.rejected == st.Rejected && rs.computed == st.Computed &&
		rs.batches == st.Batches && rs.hits == st.CacheHits && rs.evictions == st.Evictions &&
		rs.p50 == st.P50Sec && rs.p99 == st.P99Sec,
		"replay %+v differs from serve.Run (served %d rejected %d computed %d batches %d hits %d evictions %d p50 %v p99 %v)",
		rs, st.Served, st.Rejected, st.Computed, st.Batches, st.CacheHits, st.Evictions, st.P50Sec, st.P99Sec)
	ledger(m, runs, median(walls))

	m["sampler.edges"] = first.edges
	m["tensor.gather_bytes"] = first.gatherBytes
	m["gnn.flops"] = first.flops
	m["accel.agg_cycles"] = float64(first.fpga.AggCycles)
	m["accel.update_cycles"] = float64(first.fpga.UpdateCycles)
	m["accel.traffic_bytes"] = float64(first.fpga.TrafficBytes)
	m["serve.batch_wait_p99_ms"] = 1e3 * rs.batchWaitP99
	if rs.lookups > 0 {
		m["serve.cache_evictions_per_lookup"] = float64(rs.evictions) / float64(rs.lookups)
	}
	return res, nil
}
