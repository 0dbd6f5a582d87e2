package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/gnn"
	"repro/internal/serve"
)

const (
	setupRepeats  = 5 // set-ups per run; setup_s is their median
	virtualEpochs = 4 // epochs the virtual-clock training metrics cover
	repeatEpochs  = 2 // epochs the same-seed repeat run must reproduce
	bisectSteps   = 5 // refinements of max_rps_at_slo between two rungs
)

// result is one workload run: attempted and failed operations, the metrics it
// emits, the extra rows printed for people, and every failed output check.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	report            []reportRow
	failures          []string
}

type reportRow struct {
	name  string
	value float64
	unit  string
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) row(name string, value float64, unit string) {
	r.report = append(r.report, reportRow{name, value, unit})
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank is the p-quantile of sorted by the nearest-rank rule the
// serving stats use.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// liveHeapMB is the Go heap still reachable after a full collection: the
// fixture, the engine or worker pool, and whatever scratch they retain.
// Unlike the process's peak RSS it does not depend on when the collector
// happened to run.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// setupTimes runs build setupRepeats times, after a collection each, and
// returns each wall time; build's argument says which set-up it is.
func setupTimes(build func(i int) error) ([]float64, error) {
	var out []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := build(i); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// runTrainE2E measures a training workload untraced.
func runTrainE2E(w *workload, seed uint64, seconds float64) (*result, error) {
	t := w.train
	build := func() (trainer, error) {
		ds, err := materialize(w.name, t.vertices, t.edges, t.dims, t.trainFrac, seed)
		if err != nil {
			return nil, err
		}
		return t.build(ds, seed)
	}
	var main trainer
	setups, err := setupTimes(func(i int) error {
		tr, err := build()
		if i == 0 {
			main = tr
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	res := newResult()
	var eps []epochResult
	var walls, probes []float64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(eps) < virtualEpochs || time.Now().Before(deadline) {
		t0 := time.Now()
		ep, err := main.epoch()
		if err != nil {
			return nil, err
		}
		if len(eps) > 0 { // the first epoch is the warm-up
			walls = append(walls, time.Since(t0).Seconds())
		}
		probes = append(probes, probe())
		eps = append(eps, ep)
		res.attempted += ep.iterations
	}
	res.check(main.replicaDrift() == 0, "replicas diverged by %v", main.replicaDrift())
	res.metrics["live_heap_mb"] = liveHeapMB()
	runtime.KeepAlive(main)
	main = nil

	// A second engine built from the same seed must reproduce the first
	// epochs exactly.
	repeat, err := build()
	if err != nil {
		return nil, err
	}
	for i := 0; i < repeatEpochs; i++ {
		ep, err := repeat.epoch()
		if err != nil {
			return nil, err
		}
		res.attempted += ep.iterations
		ref := eps[i]
		res.check(ep.loss == ref.loss && ep.virtualSec == ref.virtualSec && ep.mteps == ref.mteps,
			"same-seed repeat epoch %d: loss %v virtual %v mteps %v, want %v %v %v",
			i+1, ep.loss, ep.virtualSec, ep.mteps, ref.loss, ref.virtualSec, ref.mteps)
	}
	res.check(repeat.replicaDrift() == 0, "repeat replicas diverged by %v", repeat.replicaDrift())
	first, last := eps[0].loss, eps[len(eps)-1].loss
	res.check(!math.IsNaN(last) && !math.IsInf(last, 0), "final loss %v is not finite", last)
	res.check(last < first, "final loss %v not below the first epoch's %v", last, first)

	targetRate, mteps := virtualRates(eps[:virtualEpochs])
	var epochMs []float64
	for _, ep := range eps[:virtualEpochs] {
		epochMs = append(epochMs, 1e3*ep.virtualSec)
	}
	sort.Float64s(epochMs)
	wallRate := float64(eps[0].targets) / median(walls)
	m := res.metrics
	m["setup_s"] = median(setups)
	m["norm_items_per_s"] = normRate(float64(eps[0].targets), walls, probes)
	m["virtual_items_per_s"] = targetRate
	m["p50_ms"] = nearestRank(epochMs, 0.5)
	m["p99_ms"] = nearestRank(epochMs, 0.99)

	res.row("train_targets_per_s", wallRate, "1/s")
	res.row("host_probe_ms", 1e3*median(probes), "ms")
	res.row("virtual_mteps", mteps, "MTEPS")
	res.row("train_loss", eps[virtualEpochs-1].loss, "1")
	res.row("timed_epochs", float64(len(walls)), "count")
	return res, nil
}

// virtualRates is training targets per virtual second and Eq. 5's MTEPS
// over a run of epochs.
func virtualRates(eps []epochResult) (targetsPerSec, mteps float64) {
	var targets, virt, edges float64
	for _, ep := range eps {
		targets += float64(ep.targets)
		virt += ep.virtualSec
		edges += ep.mteps * ep.virtualSec * 1e6
	}
	return targets / virt, edges / virt / 1e6
}

// pool builds one inference pipeline per serving worker — the construction
// serve.Run performs — so set-up time includes the worker pool.
func (s *serveSpec) pool(ds *datagen.Dataset, m *gnn.Model, seed uint64) error {
	cfg := s.config(ds, m, s.ladder[s.nominal], seed)
	bindings := []int{0}
	for i := range cfg.Plat.Accels[:cfg.Workers] {
		bindings = append(bindings, i+1)
	}
	for _, dev := range bindings {
		p, err := core.NewInferencePipeline(core.InferConfig{
			Plat: cfg.Plat, Data: ds, Model: m, Fanouts: s.fanouts, Device: dev, Seed: seed,
		})
		if err != nil {
			return err
		}
		for c := 1; c <= maxBatch; c++ {
			if _, err := p.ServiceSec(c); err != nil {
				return err
			}
		}
	}
	return nil
}

// meetsSLO reports whether a run met every class's p99 limit with nothing
// rejected or shed.
func (s *serveSpec) meetsSLO(st *serve.Stats) bool {
	if st.Rejected > 0 || st.Shed > 0 {
		return false
	}
	for c, cs := range st.PerClass {
		if cs.Offered > 0 && cs.P99Sec > sloLimits[c] {
			return false
		}
	}
	return true
}

// checkLedger applies the per-run serving output checks.
func checkLedger(res *result, st *serve.Stats, rate float64) {
	res.check(st.Offered == st.Served+st.Rejected+st.Shed,
		"rate %.0f: offered %d != served %d + rejected %d + shed %d", rate, st.Offered, st.Served, st.Rejected, st.Shed)
	res.check(st.P50Sec <= st.P99Sec, "rate %.0f: p50 %v > p99 %v", rate, st.P50Sec, st.P99Sec)
}

// sameRun reports whether two runs of one configuration produced the same
// virtual-clock results.
func sameRun(a, b *serve.Stats) bool {
	return a.Offered == b.Offered && a.Served == b.Served && a.Rejected == b.Rejected &&
		a.Computed == b.Computed && a.CacheHits == b.CacheHits && a.Evictions == b.Evictions &&
		a.Batches == b.Batches && a.P50Sec == b.P50Sec && a.P99Sec == b.P99Sec &&
		a.MeanServiceSec == b.MeanServiceSec && a.MakespanSec == b.MakespanSec
}

// runServeE2E measures a serving workload untraced.
func runServeE2E(w *workload, seed uint64, seconds float64) (*result, error) {
	s := w.serve
	var ds *datagen.Dataset
	var model *gnn.Model
	setups, err := setupTimes(func(i int) error {
		d, m, err := s.fixture(w.name, seed)
		if err != nil {
			return err
		}
		if err := s.pool(d, m, seed); err != nil {
			return err
		}
		if i == 0 {
			ds, model = d, m
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := newResult()
	run := func(rate float64) (*serve.Stats, error) {
		st, err := serve.Run(s.config(ds, model, rate, seed))
		if err != nil {
			return nil, err
		}
		checkLedger(res, st, rate)
		return st, nil
	}

	// Ladder: the highest passing rung, refined by bisection towards the
	// first failing one.
	best := -1
	for i, rate := range s.ladder {
		st, err := run(rate)
		if err != nil {
			return nil, err
		}
		if !s.meetsSLO(st) {
			break
		}
		best = i
	}
	m := res.metrics
	res.check(best >= s.nominal, "nominal rung %.0f req/s misses its SLO", s.ladder[s.nominal])
	maxRPS := 0.0
	if best >= 0 {
		maxRPS = s.ladder[best]
		if best+1 < len(s.ladder) {
			lo, hi := maxRPS, s.ladder[best+1]
			for i := 0; i < bisectSteps; i++ {
				mid := (lo + hi) / 2
				st, err := run(mid)
				if err != nil {
					return nil, err
				}
				if s.meetsSLO(st) {
					lo = mid
				} else {
					hi = mid
				}
			}
			maxRPS = lo
		}
	}

	// Nominal rung, repeated for the measuring window: wall rate per run,
	// probed for host speed between runs, and every repeat must reproduce
	// the first run's virtual results.
	rate := s.ladder[s.nominal]
	var nominal *serve.Stats
	var walls []float64
	probes := []float64{probe()}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(walls) < 3 || time.Now().Before(deadline) {
		t0 := time.Now()
		st, err := run(rate)
		if err != nil {
			return nil, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		probes = append(probes, probe())
		res.attempted += st.Offered
		res.failed += st.Rejected + st.Shed
		if nominal == nil {
			nominal = st
		} else {
			res.check(sameRun(st, nominal), "same-seed repeat at %.0f req/s changed its virtual results", rate)
		}
	}
	m["live_heap_mb"] = liveHeapMB()
	runtime.KeepAlive(ds)
	runtime.KeepAlive(model)
	pred := nominal.Prediction.ServiceSec
	res.check(pred > 0 && math.Abs(nominal.MeanServiceSec/pred-1) <= 0.35,
		"executed service %v outside ±35%% of the analytic %v", nominal.MeanServiceSec, pred)

	wallRate := float64(nominal.Offered) / median(walls)
	m["setup_s"] = median(setups)
	m["norm_items_per_s"] = normRate(float64(nominal.Offered), walls, probes)
	m["virtual_items_per_s"] = maxRPS
	m["p50_ms"] = 1e3 * nominal.P50Sec
	m["p99_ms"] = 1e3 * nominal.P99Sec

	res.row("serve_wall_rps", wallRate, "1/s")
	res.row("host_probe_ms", 1e3*median(probes), "ms")
	res.row("p50_ms", 1e3*nominal.P50Sec, "ms")
	res.row("p99_ms", 1e3*nominal.P99Sec, "ms")
	res.row("slo_attainment", sloAttainment(nominal), "ratio")
	res.row("max_rps_at_slo", maxRPS, "1/s")
	if s.cohorts {
		res.row("interactive_p99_ms", 1e3*nominal.PerClass[serve.ClassInteractive].P99Sec, "ms")
	}
	res.row("nominal_rps", rate, "1/s")
	res.row("cache_hit_ratio", nominal.HitRate, "ratio")
	res.row("mean_batch", nominal.MeanBatch, "count")
	res.row("nominal_runs", float64(len(walls)), "count")
	return res, nil
}

// sloAttainment is requests served within their class limit over offered.
func sloAttainment(st *serve.Stats) float64 {
	if st.Offered == 0 {
		return 0
	}
	return float64(st.Served-st.DeadlineMisses) / float64(st.Offered)
}
