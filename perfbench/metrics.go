package main

// metricDef declares one reported metric. BENCHMARK.json mirrors these
// tables; a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: tolerated worsening, as a share of the parent's median
	doc    string
}

// endToEnd is the untraced run's metric set. Every workload reports every
// one of them, so each is defined on both planes: training's unit of work
// is a target vertex (and an epoch for latency), serving's is a request.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25,
		"median over 5 set-ups of dataset materialisation plus engine, fleet or worker-pool construction"},
	{"live_heap_mb", "MB", "lower", 0.15,
		"Go heap reachable after a full collection at the end of the measured run: the fixture plus the engine " +
			"or fleet and its retained scratch (serving: the fixture; serve.Run's server is per-run)"},
	{"success_share", "ratio", "higher", 0.01,
		"1 - fail_share: operations neither failed, rejected nor shed, over attempted (0 when an output check fails)"},
	{"norm_items_per_s", "1/s", "higher", 0.25,
		"host wall clock scaled to a fixed host speed: per timed unit (training epoch after a warm-up epoch, " +
			"serving nominal-rung run), items per wall second x sqrt(mean of the probes just before and after it / 50 ms), " +
			"median over units; the probe is a fixed 2 MiB random-access loop in perfbench. " +
			"The raw wall rates are printed as train_targets_per_s and serve_wall_rps"},
	{"virtual_items_per_s", "1/s", "higher", 0.15,
		"virtual clock: training targets per virtual second over the first 4 epochs; serving max_rps_at_slo, " +
			"the highest offered rate meeting every class limit with nothing rejected or shed"},
	{"p50_ms", "ms", "lower", 0.15,
		"virtual clock: median request latency at the nominal rung; training: median virtual epoch time of the first 4 epochs"},
	{"p99_ms", "ms", "lower", 0.15,
		"virtual clock: p99 request latency at the nominal rung; training: slowest virtual epoch of the first 4 epochs"},
}

// perLayer is the traced run's metric set. Every workload reports every one;
// a layer the workload does not run reports 0.
var perLayer = []metricDef{
	{"datagen.materialize_s", "s", "lower", 0, "dataset materialisation wall time"},
	{"graph.partition_s", "s", "lower", 0, "graph.PartitionGreedyBFS wall time (train-cluster only)"},
	{"sampler.self_s", "s", "lower", 0, "self time of Batcher.Next and Sampler.SampleInto spans"},
	{"sampler.edges", "count", "lower", 0, "edges traversed by the sampled mini-batches"},
	{"tensor.gather_s", "s", "lower", 0, "self time of tensor.GatherRows spans"},
	{"tensor.gather_bytes", "B", "lower", 0, "gathered rows x feature dim x 4"},
	{"gnn.forward_s", "s", "lower", 0, "self time of Model.ForwardWS spans, with the softmax cross-entropy loss"},
	{"gnn.backward_s", "s", "lower", 0, "self time of Model.BackwardWS spans"},
	{"gnn.infer_s", "s", "lower", 0, "self time of Model.InferMiniBatchWS spans"},
	{"gnn.flops", "count", "lower", 0, "floating-point operations of the forward, backward and inference passes, from shapes"},
	{"accel.forward_s", "s", "lower", 0, "self time of accel Backend.Forward spans"},
	{"accel.agg_cycles", "count", "lower", 0, "scatter-gather cycles reported by Backend.Forward"},
	{"accel.update_cycles", "count", "lower", 0, "systolic cycles reported by Backend.Forward"},
	{"accel.traffic_bytes", "B", "lower", 0, "external feature traffic reported by Backend.Forward"},
	{"optim.reduce_s", "s", "lower", 0, "self time of Synchronizer.Submit rounds"},
	{"optim.step_s", "s", "lower", 0, "self time of SGD.Step spans"},
	{"drm.adjust_s", "s", "lower", 0, "self time of drm Engine.Adjust spans"},
	{"drm.cpu_batch_share", "ratio", "higher", 0, "mean CPU trainer share of the global batch"},
	{"drm.reassignments", "count", "lower", 0, "DRM work and thread moves applied"},
	{"core.unattributed_s", "s", "lower", 0, "traced epoch wall minus every layer's self time (orchestration, pricing, clock)"},
	{"core.allocs_per_iter", "count", "lower", 0, "heap allocations per iteration of the untraced engine epoch"},
	{"core.infer_s", "s", "lower", 0, "self time of the inference pipeline's batch spans (pricing and staging)"},
	{"core.train_loss", "1", "lower", 0, "training loss after the 4th epoch"},
	{"core.virtual_mteps", "MTEPS", "higher", 0, "Eq. 5 on the virtual clock over the first 4 epochs"},
	{"cluster.net_sync_virtual_s", "s", "lower", 0, "mean per-node all-reduce virtual seconds per epoch"},
	{"cluster.net_fetch_virtual_s", "s", "lower", 0, "mean per-node remote-feature virtual seconds per epoch"},
	{"cluster.remote_rows", "count", "lower", 0, "feature rows fetched across the NIC per epoch"},
	{"cluster.ring_bytes", "B", "lower", 0, "ring all-reduce bytes sent per epoch: iterations x 2(n-1) x model bytes"},
	{"perfmodel.service_ratio", "ratio", "lower", 0, "executed MeanServiceSec over the analytic Prediction.ServiceSec"},
	{"serve.arrival_s", "s", "lower", 0, "self time of arrival-stream Next spans"},
	{"serve.admission_s", "s", "lower", 0, "self time of AdmitClass and DispatchedKind spans"},
	{"serve.batcher_s", "s", "lower", 0, "self time of DynamicBatcher Add, CloseExpired and Flush spans"},
	{"serve.cache_s", "s", "lower", 0, "self time of ShardedCache GetMany and PutMany spans"},
	{"serve.allocs_per_request", "count", "lower", 0, "heap allocations per request of the untraced serve.Run"},
	{"serve.unattributed_s", "s", "lower", 0, "traced serving wall minus every layer's self time (router, dispatch, stats)"},
	{"serve.cache_hit_ratio", "ratio", "higher", 0, "served requests answered by the cache"},
	{"serve.cache_evictions_per_lookup", "ratio", "lower", 0, "cache evictions per lookup"},
	{"serve.batch_wait_p99_ms", "ms", "lower", 0, "p99 of batch close time minus scheduled arrival"},
	{"serve.mean_batch", "count", "higher", 0, "mean requests per closed batch"},
	{"serve.computed_share", "ratio", "lower", 0, "served requests that ran the inference pipeline"},
	{"serve.route_share.cpu", "ratio", "higher", 0, "computed batches routed to the CPU peer"},
	{"serve.route_share.fpga", "ratio", "higher", 0, "computed batches routed to FPGA workers"},
	{"serve.device_busy_share.cpu", "ratio", "higher", 0, "CPU peer busy virtual seconds over the makespan"},
	{"serve.device_busy_share.fpga", "ratio", "higher", 0, "mean FPGA worker busy virtual seconds over the makespan"},
	{"serve.rejected", "count", "lower", 0, "requests rejected or shed at the nominal rung"},
	{"serve.slo_attainment", "ratio", "higher", 0, "requests served within their class limit over offered, at the nominal rung"},
	{"serve.interactive_p99_ms", "ms", "lower", 0, "interactive-class p99 at the nominal rung (serve-hot only)"},
	{"ledger.traced_e2e_s", "s", "lower", 0, "wall time of the traced replay: the root span"},
	{"ledger.untraced_e2e_s", "s", "lower", 0, "wall time of the same work run untraced through the real entry point"},
	{"ledger.overhead_s", "s", "lower", 0, "traced minus untraced e2e: span recording plus the replay's serial schedule"},
	{"ledger.unattributed_share", "ratio", "lower", 0, "unattributed self time over the traced e2e"},
}

// spanMetric maps a span name to the per-layer self-time metric it feeds.
var spanMetric = map[string]string{
	"sampler":         "sampler.self_s",
	"tensor.gather":   "tensor.gather_s",
	"gnn.forward":     "gnn.forward_s",
	"gnn.backward":    "gnn.backward_s",
	"gnn.infer":       "gnn.infer_s",
	"accel.forward":   "accel.forward_s",
	"optim.reduce":    "optim.reduce_s",
	"optim.step":      "optim.step_s",
	"drm.adjust":      "drm.adjust_s",
	"core.epoch":      "core.unattributed_s",
	"core.infer":      "core.infer_s",
	"serve.run":       "serve.unattributed_s",
	"serve.arrival":   "serve.arrival_s",
	"serve.admission": "serve.admission_s",
	"serve.batcher":   "serve.batcher_s",
	"serve.cache":     "serve.cache_s",
}
