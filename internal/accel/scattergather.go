// Package accel models the paper's FPGA hardware kernels (§IV-C, Fig. 6):
// a scatter-gather feature-aggregation engine with a Feature Duplicator that
// exploits source-sorted edges to fetch each vertex feature exactly once,
// a systolic-array MLP for the update stage, and an FPGA resource model
// reproducing Table IV. The simulators are functional (they compute real
// aggregation results, cross-checked against the reference implementation)
// and cycle-approximate (they report memory traffic and cycle counts used by
// the performance model).
package accel

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// ScatterGatherConfig describes the aggregation engine.
type ScatterGatherConfig struct {
	NumPEs        int // n: scatter/gather PE pairs, edges processed per cycle
	FeatWidth     int // f: elements per feature vector
	BytesPerCycle int // external-memory bytes deliverable per cycle
	FetchLatency  int // cycles from issuing a feature fetch to availability
}

// Validate checks the configuration.
func (c ScatterGatherConfig) Validate() error {
	if c.NumPEs <= 0 || c.FeatWidth <= 0 || c.BytesPerCycle <= 0 || c.FetchLatency < 0 {
		return fmt.Errorf("accel: bad scatter-gather config %+v", c)
	}
	return nil
}

// ScatterGatherResult reports the simulated execution.
type ScatterGatherResult struct {
	FeatureFetches int   // features read from external memory
	TrafficBytes   int64 // external memory traffic for input features
	Cycles         int64 // approximate execution cycles
	EdgesProcessed int
	ReuseFactor    float64 // edges per fetch — the Dout(v) reuse of §IV-C
}

// RunScatterGather simulates the aggregation kernel on an edge list over
// local indices: out[dst] += w[i]·features[src]. edges is only read. Edges
// should be sorted by source (a Block's SourceMajor index, which Backend
// passes with its aligned weights, or a copy from SortedEdgesBySourceInto)
// to realise feature reuse; unsorted input is processed correctly but
// fetches once per source *run*, exactly like the hardware, demonstrating
// the O(|E|)→O(|V0|) traffic reduction.
//
// The Feature Duplicator broadcasts each fetched feature to all S-PEs;
// consecutive edges sharing the source consume the resident feature. Cycle
// accounting: every fetch stalls the pipeline for the memory time of one
// feature row (plus latency, overlapped after the first), and every group of
// up to NumPEs resident-feature edges retires per cycle.
func RunScatterGather(cfg ScatterGatherConfig, edges []graph.Edge, weights []float32,
	features *tensor.Matrix, out *tensor.Matrix) (ScatterGatherResult, error) {
	if err := cfg.Validate(); err != nil {
		return ScatterGatherResult{}, err
	}
	if features.Cols != cfg.FeatWidth || out.Cols != cfg.FeatWidth {
		return ScatterGatherResult{}, fmt.Errorf("accel: feature width %d, config %d", features.Cols, cfg.FeatWidth)
	}
	if weights != nil && len(weights) != len(edges) {
		return ScatterGatherResult{}, fmt.Errorf("accel: %d weights for %d edges", len(weights), len(edges))
	}
	var res ScatterGatherResult
	res.EdgesProcessed = len(edges)
	featBytes := int64(cfg.FeatWidth) * 4
	fetchCycles := int64((int(featBytes) + cfg.BytesPerCycle - 1) / cfg.BytesPerCycle)

	resident := int32(-1)
	run := 0 // consecutive edges using the resident feature
	flushRun := func() {
		if run > 0 {
			res.Cycles += int64((run + cfg.NumPEs - 1) / cfg.NumPEs)
			run = 0
		}
	}
	for i, e := range edges {
		if e.Src != resident {
			flushRun()
			// Feature Duplicator fetches and broadcasts a new source feature.
			res.FeatureFetches++
			res.TrafficBytes += featBytes
			if res.FeatureFetches == 1 {
				res.Cycles += int64(cfg.FetchLatency)
			}
			res.Cycles += fetchCycles
			resident = e.Src
		}
		run++
		// Functional datapath: S-PE scales, routing network delivers to the
		// destination's G-PE accumulator.
		w := float32(1)
		if weights != nil {
			w = weights[i]
		}
		src := features.Row(int(e.Src))
		dst := out.Row(int(e.Dst))
		for j, v := range src {
			dst[j] += w * v
		}
	}
	flushRun()
	if res.FeatureFetches > 0 {
		res.ReuseFactor = float64(res.EdgesProcessed) / float64(res.FeatureFetches)
	}
	return res, nil
}
