package accel

import (
	"fmt"
	"math"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/sampler"
	"repro/internal/tensor"
)

// Backend executes a GNN forward pass through the paper's hardware dataflow
// (Fig. 6): per layer, the scatter-gather engine aggregates over
// source-sorted edges (Feature Duplicator reuse), the systolic array applies
// the dense update, and the intermediate result is forwarded on-chip to the
// next layer — only the final output leaves the device. It is functionally
// exact (same numbers as the reference gnn implementation, up to float
// reassociation) and returns the cycle/traffic accounting the timing models
// use, making the §IV-C claims testable end to end.
type Backend struct {
	SG       ScatterGatherConfig
	Systolic SystolicConfig

	// sc holds per-mini-batch scratch (aggregation coefficients and their
	// source-sorted alignment) reused across Forward calls, so preparing the
	// dataflow's layout stops allocating once the buffers have grown to the
	// largest batch. A Backend is therefore not safe for concurrent Forward
	// calls — each trainer and serving worker owns its own, as they already
	// do for replicas and clocks.
	sc backendScratch
}

type backendScratch struct {
	w     []float32
	edgeW []float32
	selfW []float32
}

func f32Buf(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// U250Backend configures the backend as the paper's published design point:
// 8 scatter-gather PE pairs, 2048 MACs at 300 MHz, 64 B/cycle DDR.
func U250Backend(featWidth int) Backend {
	return Backend{
		SG:       ScatterGatherConfig{NumPEs: 8, FeatWidth: featWidth, BytesPerCycle: 64, FetchLatency: 32},
		Systolic: SystolicConfig{NumMACs: 2048, FreqGHz: 0.3, FillCost: 256},
	}
}

// ForwardStats aggregates the hardware accounting of one forward pass.
type ForwardStats struct {
	AggCycles      int64
	UpdateCycles   int64
	FeatureFetches int
	TrafficBytes   int64 // external reads of input features
	OutputBytes    int64 // final result written back (the only writeback)
	Sec            float64
}

// Add accumulates another pass's accounting (aggregation across trainers
// and iterations).
func (s *ForwardStats) Add(o ForwardStats) {
	s.AggCycles += o.AggCycles
	s.UpdateCycles += o.UpdateCycles
	s.FeatureFetches += o.FeatureFetches
	s.TrafficBytes += o.TrafficBytes
	s.OutputBytes += o.OutputBytes
	s.Sec += o.Sec
}

// Forward runs the model's forward pass on a mini-batch through the
// simulated hardware kernels. x holds gathered input features (|V0| × f0).
// Aggregation weights are taken from the model (same coefficients as the
// reference path). Returns the logits and the hardware statistics.
func (bk *Backend) Forward(m *gnn.Model, mb *sampler.MiniBatch, x *tensor.Matrix) (*tensor.Matrix, *ForwardStats, error) {
	L := m.Cfg.Layers()
	if len(mb.Blocks) != L {
		return nil, nil, fmt.Errorf("accel: %d blocks for %d layers", len(mb.Blocks), L)
	}
	if x.Cols != m.Cfg.Dims[0] {
		return nil, nil, fmt.Errorf("accel: features %d-dim, model expects %d", x.Cols, m.Cfg.Dims[0])
	}
	stats := &ForwardStats{}
	h := x
	for l := 0; l < L; l++ {
		b := mb.Blocks[l]
		fin := m.Cfg.Dims[l]
		nd := len(b.Dst)

		// Aggregation on the scatter-gather engine: edges sorted by source
		// so each feature row is fetched once (§IV-C). Self loops are extra
		// "edges" from the dst-prefix rows. The order is the block's
		// source-major index (a stable counting sort, so duplicate (src,dst)
		// pairs keep the block's CSC order, matching the reference path's
		// pairing); coefficients resolve into reused scratch aligned to it.
		edges, wBySortedEdge, selfW := bk.sc.sortedWeightedEdges(m.Cfg, b)
		agg := tensor.New(nd, fin)
		sgCfg := bk.SG
		sgCfg.FeatWidth = fin
		res, err := RunScatterGather(sgCfg, edges, wBySortedEdge, h, agg)
		if err != nil {
			return nil, nil, err
		}
		stats.AggCycles += res.Cycles
		stats.FeatureFetches += res.FeatureFetches
		// Only layer 0 reads from external memory; deeper layers consume
		// on-chip intermediates (the Fig. 6 datapath).
		if l == 0 {
			stats.TrafficBytes += res.TrafficBytes
		}
		// Self contributions (the duplicator holds the dst rows on-chip).
		for d := 0; d < nd; d++ {
			if w := selfW[d]; w != 0 {
				src := h.Row(d)
				dst := agg.Row(d)
				for j, v := range src {
					dst[j] += w * v
				}
			}
		}

		var dense *tensor.Matrix
		if m.Cfg.Kind == gnn.SAGE {
			// [self ‖ mean]: the dst-prefix rows of h are the self features.
			dense = tensor.New(nd, 2*fin)
			for d := 0; d < nd; d++ {
				row := dense.Row(d)
				copy(row[:fin], h.Row(d))
				copy(row[fin:], agg.Row(d))
			}
		} else {
			dense = agg
		}

		// Dense update on the systolic array.
		z := tensor.New(nd, m.Cfg.Dims[l+1])
		sres, err := RunSystolic(bk.Systolic, z, dense, m.Params.Weights[l], m.Params.Biases[l])
		if err != nil {
			return nil, nil, err
		}
		stats.UpdateCycles += sres.Cycles
		if l < L-1 {
			tensor.ReLU(z)
		}
		h = z
	}
	stats.OutputBytes = int64(h.Rows) * int64(h.Cols) * 4
	// Pipelined kernels (⊕ = max per layer is already folded into the cycle
	// sums approximately; report wall time as the max of the two engines).
	aggSec := float64(stats.AggCycles) / (bk.Systolic.FreqGHz * 1e9)
	updSec := float64(stats.UpdateCycles) / (bk.Systolic.FreqGHz * 1e9)
	stats.Sec = math.Max(aggSec, updSec)
	return h, stats, nil
}

// sortedWeightedEdges resolves the block's aggregation coefficients into the
// scratch buffers and returns the source-sorted edge list with its aligned
// per-edge weights plus the per-destination self weights. The edge list is
// the block's cached SourceMajor index (read-only here); the weights follow
// its permutation back to the CSC edge ids.
func (sc *backendScratch) sortedWeightedEdges(cfg gnn.Config, b *sampler.Block) ([]graph.Edge, []float32, []float32) {
	ne := b.NumEdges()
	sc.edgeW = f32Buf(sc.edgeW, ne)
	sc.selfW = f32Buf(sc.selfW, len(b.Dst))
	edgeW, selfW := gnn.EdgeWeightsInto(cfg, b, sc.edgeW, sc.selfW)
	idx := b.SourceMajor()
	sc.w = f32Buf(sc.w, ne)
	for t, e := range idx.CSC {
		sc.w[t] = edgeW[e]
	}
	return idx.Edges, sc.w, selfW
}
