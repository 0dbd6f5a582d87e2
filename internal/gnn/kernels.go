// Layer-propagation kernels: the aggregate-over-neighbor-set and dense-update
// primitives shared by every execution path in the system — sampled training
// (Forward/Backward), exact full-graph inference (InferFullGraph), and
// sampled mini-batch inference (InferMiniBatch). A Neighborhood captures the
// message structure of one bipartite layer with its aggregation coefficients
// pre-resolved for the model kind (GCN/SAGE/GIN), so callers compose layers
// without re-implementing the aggregator.

package gnn

import (
	"fmt"

	"repro/internal/sampler"
	"repro/internal/tensor"
)

// Neighborhood is one layer's message structure ready for propagation: a
// bipartite edge set (CSC over destinations, Col holding local source
// indices) plus the per-edge and per-destination-self coefficients the model
// kind assigns. Destination d's self feature is source row d (Dst is a
// prefix of Src in every Block, including the full-graph block).
type Neighborhood struct {
	Block *sampler.Block
	EdgeW []float32 // aggregation coefficient per edge
	SelfW []float32 // self-loop coefficient per destination (0 for SAGE)
}

// NewNeighborhood resolves cfg's aggregation coefficients for a block.
func NewNeighborhood(cfg Config, b *sampler.Block) *Neighborhood {
	nb := &Neighborhood{}
	nb.init(cfg, b, nil)
	return nb
}

// init (re-)binds the neighborhood to a block, resolving coefficients into
// ws-backed slices when ws is non-nil. Reused by ForwardState across
// iterations — ForwardWS re-binds per layer — so steady-state training
// rebuilds neighborhoods without allocating.
func (nb *Neighborhood) init(cfg Config, b *sampler.Block, ws *tensor.Workspace) {
	nb.Block = b
	if ws != nil {
		nb.EdgeW, nb.SelfW = EdgeWeightsInto(cfg, b, ws.F32(b.NumEdges()), ws.F32(len(b.Dst)))
	} else {
		nb.EdgeW, nb.SelfW = EdgeWeights(cfg, b)
	}
}

// NumDst returns the number of destination vertices.
func (nb *Neighborhood) NumDst() int { return len(nb.Block.Dst) }

// Aggregate computes the weighted neighbor sum for every destination:
// out[d] = SelfW[d]·h[d] + Σ_e EdgeW[e]·h[Col[e]]. out is |Dst| × h.Cols.
// Destinations are independent, so the loop is row-parallel.
func (nb *Neighborhood) Aggregate(out, h *tensor.Matrix) {
	nb.aggregateInto(out, 0, h)
}

// aggregateInto writes the aggregate into the column band
// [colOff, colOff+h.Cols) of out — the fused form that lets SAGE aggregate
// straight into the mean half of its [self ‖ mean] dense input instead of
// paying a separate ConcatCols pass.
func (nb *Neighborhood) aggregateInto(out *tensor.Matrix, colOff int, h *tensor.Matrix) {
	rows, work := len(nb.Block.Dst), nb.Block.NumEdges()*h.Cols
	if tensor.Workers(rows, work) == 1 {
		aggregateRange(nb.Block, nb.EdgeW, nb.SelfW, out, colOff, h, 0, rows)
		return
	}
	// The closure captures the neighborhood's fields, not the neighborhood
	// itself, so stack-allocated Neighborhood values (the serving hot path)
	// never escape.
	b, edgeW, selfW := nb.Block, nb.EdgeW, nb.SelfW
	tensor.ParallelRows(rows, work, func(lo, hi int) { aggregateRange(b, edgeW, selfW, out, colOff, h, lo, hi) })
}

func aggregateRange(b *sampler.Block, edgeW, selfW []float32, out *tensor.Matrix, colOff int, h *tensor.Matrix, lo, hi int) {
	cols := h.Cols
	for d := lo; d < hi; d++ {
		orow := out.Row(d)[colOff : colOff+cols]
		if w := selfW[d]; w != 0 {
			// Dst is a prefix of Src: local index d is the self row. The
			// scale-initialise pass rides the same SIMD dispatch as AxpyRow.
			tensor.ScaleRowInto(orow, h.Row(d), w)
		} else {
			for j := range orow {
				orow[j] = 0
			}
		}
		for e := b.RowPtr[d]; e < b.RowPtr[d+1]; e++ {
			tensor.AxpyRow(orow, h.Data[int(b.Col[e])*cols:int(b.Col[e])*cols+cols], edgeW[e])
		}
	}
}

// AggregateBackward scatters dAgg back to the sources with the same
// coefficients (the transpose of Aggregate), adding into dh (zero it first
// for a pure scatter). Sources are shared between destinations, so the
// destination-major scatter cannot be row-parallelised directly; instead the
// parallel path gathers through the block's source-major index, giving
// every ParallelRows worker an owned range of dh rows and no write races.
// Each source's contributions are applied in exactly the serial scatter's
// order — ascending destination, with destination s's self term before its
// edges — so the result is bit-identical to AggregateBackwardSerial at any
// worker count, the property the gnn test suite pins with exact equality.
// (The alternative — destination-range workers with privatized dh partials
// merged afterwards — cannot be exact: merging partial sums reassociates
// float32 addition.) When tensor.Workers allots one worker the serial
// scatter runs directly and the source-major index is not built.
func (nb *Neighborhood) AggregateBackward(dh, dAgg *tensor.Matrix) {
	rows, work := len(nb.Block.Src), nb.Block.NumEdges()*dAgg.Cols
	if tensor.Workers(rows, work) == 1 {
		nb.AggregateBackwardSerial(dh, dAgg)
		return
	}
	idx := nb.Block.SourceMajor()
	nD := len(nb.Block.Dst)
	edgeW, selfW := nb.EdgeW, nb.SelfW
	tensor.ParallelRows(rows, work, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			drow := dh.Row(s)
			t, end := idx.Ptr[s], idx.Ptr[s+1]
			if s < nD && selfW[s] != 0 {
				mid := t
				for mid < end && int(idx.Edges[mid].Dst) < s {
					mid++
				}
				gatherRun(drow, dAgg, idx, edgeW, t, mid)
				tensor.AxpyRow(drow, dAgg.Row(s), selfW[s])
				t = mid
			}
			gatherRun(drow, dAgg, idx, edgeW, t, end)
		}
	})
}

// gatherRun accumulates index positions [t, end) of one source's run into
// its gradient row.
func gatherRun(drow []float32, dAgg *tensor.Matrix, idx *sampler.SourceIndex, edgeW []float32, t, end int32) {
	cols := dAgg.Cols
	for ; t < end; t++ {
		d := int(idx.Edges[t].Dst)
		tensor.AxpyRow(drow, dAgg.Data[d*cols:d*cols+cols], edgeW[idx.CSC[t]])
	}
}

// AggregateBackwardSerial is the destination-major serial scatter — the
// pre-parallelisation kernel, retained as the exact-equality oracle and the
// single-worker fast path (it needs no source-major index).
func (nb *Neighborhood) AggregateBackwardSerial(dh, dAgg *tensor.Matrix) {
	b := nb.Block
	cols := dh.Cols
	for d := 0; d < len(b.Dst); d++ {
		grow := dAgg.Row(d)
		if w := nb.SelfW[d]; w != 0 {
			tensor.AxpyRow(dh.Row(d), grow, w)
		}
		for e := b.RowPtr[d]; e < b.RowPtr[d+1]; e++ {
			drow := dh.Data[int(b.Col[e])*cols : int(b.Col[e])*cols+cols]
			tensor.AxpyRow(drow, grow, nb.EdgeW[e])
		}
	}
}

// PropagateLayer runs layer l over a neighborhood: aggregation, SAGE's
// self-concatenation when applicable, the dense update, and the hidden-layer
// ReLU. h holds the layer input over the neighborhood's sources. It returns
// the layer output z (|Dst| × Dims[l+1]), the dense-update input (retained
// by training for the backward pass), and the ReLU mask (nil for the output
// layer). Buffers are freshly allocated; the zero-allocation paths use the
// workspace-backed propagateLayer directly.
func (m *Model) PropagateLayer(l int, nb *Neighborhood, h *tensor.Matrix) (z, dense, mask *tensor.Matrix, err error) {
	return m.propagateLayer(l, nb, h, nil)
}

// propagateLayer is PropagateLayer with buffers borrowed from ws when it is
// non-nil (contents may be dirty — every kernel below fully overwrites its
// output; ws is plumbed directly rather than through allocator closures,
// which the zero-allocation gates would count). The layer makes one pass per
// memory touch: SAGE aggregates directly into the mean half of the dense
// input and gathers self features into the other, and bias + ReLU + mask
// are fused into a single sweep of the dense-update output.
func (m *Model) propagateLayer(l int, nb *Neighborhood, h *tensor.Matrix,
	ws *tensor.Workspace) (z, dense, mask *tensor.Matrix, err error) {
	L := m.Cfg.Layers()
	if l < 0 || l >= L {
		return nil, nil, nil, fmt.Errorf("gnn: layer %d outside [0,%d)", l, L)
	}
	fin := m.Cfg.Dims[l]
	if h.Cols != fin {
		return nil, nil, nil, fmt.Errorf("gnn: layer %d input %d-dim, want %d", l, h.Cols, fin)
	}
	if h.Rows != len(nb.Block.Src) {
		return nil, nil, nil, fmt.Errorf("gnn: layer %d input has %d rows for %d sources",
			l, h.Rows, len(nb.Block.Src))
	}
	get := func(r, c int) *tensor.Matrix {
		if ws != nil {
			return ws.Get(r, c)
		}
		return tensor.New(r, c)
	}
	nd := nb.NumDst()
	if m.Cfg.Kind == SAGE {
		dense = get(nd, 2*fin)
		var self []int32
		if ws != nil {
			self = fillIdentity(ws.I32(nd))
		} else {
			self = selfIdx(nd)
		}
		tensor.GatherRowsAt(dense, 0, h, self)
		nb.aggregateInto(dense, fin, h)
	} else {
		dense = get(nd, fin)
		nb.Aggregate(dense, h)
	}
	z = get(nd, m.Cfg.Dims[l+1])
	tensor.MatMul(z, dense, m.Params.Weights[l])
	if l < L-1 {
		mask = get(nd, m.Cfg.Dims[l+1])
		tensor.AddBiasReLU(z, m.Params.Biases[l], mask)
	} else {
		tensor.AddBias(z, m.Params.Biases[l])
	}
	return z, dense, mask, nil
}
