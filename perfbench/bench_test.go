package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// tiny returns a copy of w shrunk so a run takes well under a second.
func tiny(w *workload) *workload {
	c := *w
	if w.train != nil {
		t := *w.train
		t.vertices, t.edges = 3000, 24000
		if t.nodes > 1 {
			t.vertices, t.edges = 6000, 48000
		}
		c.train = &t
	}
	if w.serve != nil {
		s := *w.serve
		s.vertices, s.edges, s.requests = 2000, 16000, 3000
		s.ladder, s.nominal = []float64{10e3, 20e3, 40e3}, 0
		c.serve = &s
	}
	return &c
}

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q uses characters outside letters, digits, _ . -", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %q: bad unit %q", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %q: better is %q", d.name, d.better)
		}
	}
	for span, metric := range spanMetric {
		if !seen[metric] {
			t.Errorf("span %q feeds undeclared metric %q", span, metric)
		}
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or reused", w.name)
		}
		seen[w.name] = true
		if len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.name)
		}
	}
}

// BENCHMARK.json at the repository root must declare exactly this
// program's workloads and metrics.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string         `json:"command"`
		Paths      []string         `json:"paths"`
		RunSeconds int              `json:"run_seconds"`
		Workloads  []map[string]any `json:"workloads"`
		EndToEnd   []map[string]any `json:"end_to_end"`
		PerLayer   []map[string]any `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Command, []string{"bash", "perfbench/run.sh"}) || !reflect.DeepEqual(b.Paths, []string{"perfbench"}) {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	var wantW []map[string]any
	for _, w := range workloads {
		wantW = append(wantW, map[string]any{"name": w.name, "why": w.why})
	}
	if !reflect.DeepEqual(b.Workloads, wantW) {
		t.Errorf("workloads\n got %v\nwant %v", b.Workloads, wantW)
	}
	var wantE, wantP []map[string]any
	for _, d := range endToEnd {
		wantE = append(wantE, map[string]any{"name": d.name, "unit": d.unit, "better": d.better, "bound": d.bound})
	}
	for _, d := range perLayer {
		wantP = append(wantP, map[string]any{"name": d.name, "unit": d.unit, "better": d.better})
	}
	if !reflect.DeepEqual(b.EndToEnd, wantE) {
		t.Errorf("end_to_end\n got %v\nwant %v", b.EndToEnd, wantE)
	}
	if !reflect.DeepEqual(b.PerLayer, wantP) {
		t.Errorf("per_layer\n got %v\nwant %v", b.PerLayer, wantP)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	r := &recorder{spans: []span{
		{name: "root", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 40, parent: 0},
		{name: "b", start: 50, end: 60, parent: 0},
		{name: "a", start: 15, end: 20, parent: 1},
	}}
	got := r.selfTimes()
	want := map[string]float64{"root": 60e-9, "a": 30e-9, "b": 10e-9}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-15 {
			t.Errorf("self(%s) = %v, want %v", k, got[k], v)
		}
	}
	if union([][2]int64{{0, 10}, {5, 20}, {30, 40}}) != 30 {
		t.Error("union of overlapping intervals")
	}
}

// Each unit is scaled by the mean of the probes on either side of it, not
// by one of them or the run's median probe: a unit that took twice as long
// while the probe averaged four times as long counts the same.
func TestNormRatePairsUnitsWithAdjacentProbes(t *testing.T) {
	walls := []float64{1, 2}
	probes := []float64{probeRefSec, probeRefSec, 7 * probeRefSec}
	// Rates 100 and 50 x sqrt(4) items per reference-speed second.
	if got := normRate(100, walls, probes); math.Abs(got-100) > 1e-9 {
		t.Errorf("normRate = %v, want 100", got)
	}
	if d := probe(); d <= 0 {
		t.Errorf("probe took %v", d)
	}
}

// The traced run of every workload: self times are non-negative and the
// layers plus the unattributed remainder add up to the traced e2e.
func TestTracedLedgerAddsUp(t *testing.T) {
	for _, w := range workloads {
		w := tiny(w)
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(w, 7, 0.01, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.failures) > 0 {
				t.Fatalf("checks failed: %v", res.failures)
			}
			var sum float64
			seen := map[string]bool{}
			for _, metric := range spanMetric {
				if seen[metric] {
					continue
				}
				seen[metric] = true
				v := res.metrics[metric]
				if v < 0 {
					t.Errorf("%s = %v < 0", metric, v)
				}
				sum += v
			}
			e2e := res.metrics["ledger.traced_e2e_s"]
			if e2e <= 0 || math.Abs(sum-e2e) > 1e-9*math.Max(1, e2e) {
				t.Errorf("layer self times sum to %v, traced e2e is %v", sum, e2e)
			}
		})
	}
}

// Per-layer counts come from deterministic work, so two runs of one seed
// report them identically.
func TestTracedCountsRepeat(t *testing.T) {
	counts := []string{"sampler.edges", "tensor.gather_bytes", "gnn.flops", "accel.agg_cycles",
		"accel.update_cycles", "accel.traffic_bytes", "drm.reassignments", "drm.cpu_batch_share",
		"cluster.remote_rows", "cluster.ring_bytes", "serve.cache_hit_ratio",
		"serve.cache_evictions_per_lookup", "serve.mean_batch", "serve.rejected"}
	for _, w := range workloads {
		w := tiny(w)
		t.Run(w.name, func(t *testing.T) {
			a, err := runWorkload(w, 11, 0.01, true)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runWorkload(w, 11, 0.01, true)
			if err != nil {
				t.Fatal(err)
			}
			nonzero := 0
			for _, c := range counts {
				if a.metrics[c] != b.metrics[c] {
					t.Errorf("%s: %v then %v", c, a.metrics[c], b.metrics[c])
				}
				if a.metrics[c] != 0 {
					nonzero++
				}
			}
			if nonzero == 0 {
				t.Error("no count was measured")
			}
			if w.train != nil && w.train.nodes == 1 && a.metrics["accel.agg_cycles"] == 0 {
				t.Error("FPGA training counted no scatter-gather cycles")
			}
		})
	}
}

// The untraced run of every workload passes its output checks and reports
// every end-to-end metric as a positive number.
func TestEndToEndChecksPass(t *testing.T) {
	for _, w := range workloads {
		w := tiny(w)
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(w, 5, 0.01, false)
			if err != nil {
				t.Fatal(err)
			}
			sum := finish(w, res, false)
			if !sum.Correct || sum.Failed != 0 {
				t.Fatalf("correct %v failed %d: %v", sum.Correct, sum.Failed, res.failures)
			}
			for _, d := range endToEnd {
				if v := sum.Metrics[d.name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", d.name, v)
				}
			}
		})
	}
}

// A failed output check fails every operation of the run.
func TestFailedCheckFailsRun(t *testing.T) {
	res := newResult()
	res.attempted = 40
	for _, d := range endToEnd {
		res.metrics[d.name] = 1
	}
	res.check(false, "forced")
	sum := finish(workloads[0], res, false)
	if sum.Correct || sum.Failed != 40 || sum.Metrics["success_share"].Value != 0 {
		t.Errorf("got correct %v failed %d success %v", sum.Correct, sum.Failed, sum.Metrics["success_share"].Value)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve-hot", "--trace", "2"},
		{"--workload", "serve-hot", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("%v: printed a result", args)
		}
	}
}
