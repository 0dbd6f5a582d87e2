// Command perfbench is the repository's benchmark. It runs one named
// workload — single-node FPGA training, executed multi-node training, or
// open-loop serving on a cache-hot or cache-cold mix — from a seed, checks
// the outputs, and prints the metrics, ending with one JSON line:
//
//	go run . --workload train-fpga --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics through the real entry points
// (Engine.RunEpoch, MultiNode.RunEpoch, serve.Run) with nothing traced.
// --trace 1 replays the same work through the modules' exported functions
// with a span around each call and reports per-layer self times and counts.
// --workload all runs every workload in turn; --describe prints the
// workload table (why, loop, layers, ladder, held-out seed) and metric
// definitions as JSON.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"

	"repro/internal/tensor"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// procs is the benchmark's GOMAXPROCS. Go code runs on one thread at a
// time, so a run does not depend on whether the host's other cores are
// free: with two Ps, one busy co-tenant thread cut train-fpga's wall rate
// by 31% on a 2-vCPU VM; with one P it did not move it. Tensor parallelism
// keeps its default, so the kernels' fork/join is still measured.
const procs = 1

func main() {
	runtime.GOMAXPROCS(procs)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name, or all")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measuring window per run, seconds")
	trace := fs.Int("trace", 0, "0: untraced end-to-end metrics; 1: traced per-layer metrics")
	describe := fs.Bool("describe", false, "print the workload and metric tables as JSON and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *describe {
		return printDescription(stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 || math.IsInf(*seconds, 0) || math.IsNaN(*seconds) {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive, got %v\n", *seconds)
		return 2
	}
	var list []*workload
	if *name == "all" {
		list = workloads
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
		list = []*workload{w}
	}

	fmt.Fprintf(stdout, "stamp: %s\n", stamp(*seed))
	total := summary{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range list {
		res, err := runWorkload(w, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		sum := finish(w, res, *trace == 1)
		printHuman(stdout, w, res, sum)
		total.Correct = total.Correct && sum.Correct
		total.Attempted += sum.Attempted
		total.Failed += sum.Failed
		for k, v := range sum.Metrics {
			if len(list) > 1 {
				k = w.name + "/" + k
			}
			total.Metrics[k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

func runWorkload(w *workload, seed uint64, seconds float64, traced bool) (*result, error) {
	switch {
	case traced && w.train != nil:
		return runTrainTraced(w, seed, seconds)
	case traced:
		return runServeTraced(w, seed, seconds)
	case w.train != nil:
		return runTrainE2E(w, seed, seconds)
	default:
		return runServeE2E(w, seed, seconds)
	}
}

// finish adds the metrics every run reports and turns a result into the
// summary line. A failed output check fails every operation.
func finish(w *workload, res *result, traced bool) summary {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	sum := summary{Correct: len(res.failures) == 0, Attempted: max(1, res.attempted),
		Failed: res.failed, Metrics: map[string]metricValue{}}
	if !sum.Correct {
		sum.Failed = sum.Attempted
	}
	if !traced {
		fail := float64(sum.Failed) / float64(sum.Attempted)
		res.metrics["success_share"] = 1 - fail
		res.row("fail_share", fail, "ratio")
		res.row("peak_rss_mb", peakRSSMB(), "MB")
	}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok && !traced {
			res.failures = append(res.failures, fmt.Sprintf("%s: metric %s not measured", w.name, d.name))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.failures = append(res.failures, fmt.Sprintf("%s: metric %s is %v", w.name, d.name, v))
			v = 0
		}
		sum.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(res.failures) > 0 {
		sum.Correct = false
		sum.Failed = sum.Attempted
	}
	return sum
}

func printHuman(out io.Writer, w *workload, res *result, sum summary) {
	fmt.Fprintf(out, "== %s (%s)\n", w.name, w.loop)
	for _, r := range res.report {
		fmt.Fprintf(out, "  %-34s %16.6g %s\n", r.name, r.value, r.unit)
	}
	defs := endToEnd
	if _, ok := sum.Metrics[perLayer[0].name]; ok {
		defs = perLayer
	}
	for _, d := range defs {
		mv := sum.Metrics[d.name]
		fmt.Fprintf(out, "  %-34s %16.6g %s\n", d.name, mv.Value, mv.Unit)
	}
	for _, f := range res.failures {
		fmt.Fprintf(out, "  CHECK FAILED: %s\n", f)
	}
	fmt.Fprintf(out, "  attempted %d failed %d correct %v\n", sum.Attempted, sum.Failed, sum.Correct)
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// stamp records the conditions a result was measured under.
func stamp(seed uint64) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	b, _ := json.Marshal(map[string]any{ // a map of strings and ints always marshals
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"tensor_parallelism": tensor.Parallelism(),
		"simd":               tensor.ActiveSIMDLevel().String(),
		"num_cpu":            runtime.NumCPU(),
		"cpu_model":          cpuModel(),
		"go":                 runtime.Version(),
		"commit":             commit,
		"seed":               seed,
	})
	return string(b)
}

// cpuModel reads the processor name the kernel reports, if it can.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printDescription writes the workload table and metric definitions.
func printDescription(stdout, stderr io.Writer) int {
	type wl struct {
		Name   string    `json:"name"`
		Why    string    `json:"why"`
		Loop   string    `json:"loop"`
		Heavy  []string  `json:"layers_heavy"`
		Light  []string  `json:"layers_light"`
		Ladder []float64 `json:"ladder_rps,omitempty"`
		Nom    float64   `json:"nominal_rps,omitempty"`
		SLO    []float64 `json:"slo_p99_ms,omitempty"`
	}
	type md struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound,omitempty"`
		Doc    string  `json:"doc"`
	}
	var d struct {
		HeldOutSeed uint64 `json:"held_out_seed"`
		Workloads   []wl   `json:"workloads"`
		EndToEnd    []md   `json:"end_to_end"`
		PerLayer    []md   `json:"per_layer"`
	}
	d.HeldOutSeed = heldOutSeed
	for _, w := range workloads {
		e := wl{Name: w.name, Why: w.why, Loop: w.loop, Heavy: w.heavy, Light: w.light}
		if s := w.serve; s != nil {
			e.Ladder, e.Nom = s.ladder, s.ladder[s.nominal]
			for _, l := range sloLimits {
				e.SLO = append(e.SLO, 1e3*l)
			}
		}
		d.Workloads = append(d.Workloads, e)
	}
	for _, m := range endToEnd {
		d.EndToEnd = append(d.EndToEnd, md{m.name, m.unit, m.better, m.bound, m.doc})
	}
	for _, m := range perLayer {
		d.PerLayer = append(d.PerLayer, md{m.name, m.unit, m.better, 0, m.doc})
	}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}
