package accel

import (
	"math"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/sampler"
	"repro/internal/tensor"
)

// oracleWeightedEdge pairs an edge with its aggregation coefficient so one
// stable comparison sort yields the source-sorted edge list and its aligned
// weights — the ordering Backend used before blocks carried a source-major
// index, kept here as the bitwise oracle.
type oracleWeightedEdge struct {
	src, dst int32
	w        float32
}

func oracleSortedWeightedEdges(cfg gnn.Config, b *sampler.Block) ([]graph.Edge, []float32, []float32) {
	edgeW, selfW := gnn.EdgeWeights(cfg, b)
	wedges := make([]oracleWeightedEdge, 0, b.NumEdges())
	for d := 0; d < len(b.Dst); d++ {
		for e := b.RowPtr[d]; e < b.RowPtr[d+1]; e++ {
			wedges = append(wedges, oracleWeightedEdge{src: b.Col[e], dst: int32(d), w: edgeW[e]})
		}
	}
	sort.SliceStable(wedges, func(i, j int) bool {
		if wedges[i].src != wedges[j].src {
			return wedges[i].src < wedges[j].src
		}
		return wedges[i].dst < wedges[j].dst
	})
	edges := make([]graph.Edge, len(wedges))
	w := make([]float32, len(wedges))
	for i, we := range wedges {
		edges[i] = graph.Edge{Src: we.src, Dst: we.dst}
		w[i] = we.w
	}
	return edges, w, selfW
}

// oracleForward is Backend.Forward as it ran on the comparison-sort
// ordering, with SAGE's [self ‖ mean] input built by ConcatCols.
func oracleForward(bk Backend, m *gnn.Model, mb *sampler.MiniBatch, x *tensor.Matrix) (*tensor.Matrix, ForwardStats) {
	var stats ForwardStats
	h := x
	L := m.Cfg.Layers()
	for l := 0; l < L; l++ {
		b := mb.Blocks[l]
		fin, nd := m.Cfg.Dims[l], len(b.Dst)
		edges, w, selfW := oracleSortedWeightedEdges(m.Cfg, b)
		agg := tensor.New(nd, fin)
		sgCfg := bk.SG
		sgCfg.FeatWidth = fin
		res, err := RunScatterGather(sgCfg, edges, w, h, agg)
		if err != nil {
			panic(err)
		}
		stats.AggCycles += res.Cycles
		stats.FeatureFetches += res.FeatureFetches
		if l == 0 {
			stats.TrafficBytes += res.TrafficBytes
		}
		for d := 0; d < nd; d++ {
			if sw := selfW[d]; sw != 0 {
				dst := agg.Row(d)
				for j, v := range h.Row(d) {
					dst[j] += sw * v
				}
			}
		}
		dense := agg
		if m.Cfg.Kind == gnn.SAGE {
			self := tensor.New(nd, fin)
			for d := 0; d < nd; d++ {
				copy(self.Row(d), h.Row(d))
			}
			dense = tensor.New(nd, 2*fin)
			tensor.ConcatCols(dense, self, agg)
		}
		z := tensor.New(nd, m.Cfg.Dims[l+1])
		sres, err := RunSystolic(bk.Systolic, z, dense, m.Params.Weights[l], m.Params.Biases[l])
		if err != nil {
			panic(err)
		}
		stats.UpdateCycles += sres.Cycles
		if l < L-1 {
			tensor.ReLU(z)
		}
		h = z
	}
	stats.OutputBytes = int64(h.Rows) * int64(h.Cols) * 4
	aggSec := float64(stats.AggCycles) / (bk.Systolic.FreqGHz * 1e9)
	updSec := float64(stats.UpdateCycles) / (bk.Systolic.FreqGHz * 1e9)
	stats.Sec = math.Max(aggSec, updSec)
	return h, stats
}

// raggedMiniBatch chains L hand-built blocks with zero-degree destinations,
// duplicate (src, dst) pairs, self loops and, with some probability, no
// edges at all. Local index i is global vertex i in every layer, so Dst is
// a prefix of Src and block l's Dst equals block l+1's Src.
func raggedMiniBatch(rng *tensor.RNG, L int) *sampler.MiniBatch {
	blocks := make([]*sampler.Block, L)
	nDst := 1 + rng.Intn(8)
	for l := L - 1; l >= 0; l-- {
		nSrc := nDst + rng.Intn(12)
		ids := make([]int32, nSrc)
		for i := range ids {
			ids[i] = int32(i)
		}
		b := &sampler.Block{Src: ids, Dst: ids[:nDst], RowPtr: make([]int32, nDst+1)}
		maxDeg := 6
		if rng.Intn(5) == 0 {
			maxDeg = 0 // an empty block
		}
		for d := 0; d < nDst; d++ {
			deg := rng.Intn(maxDeg + 1)
			for e := 0; e < deg; e++ {
				s := int32(rng.Intn(nSrc))
				if e > 0 && rng.Intn(3) == 0 {
					s = b.Col[len(b.Col)-1] // duplicate (src, dst) pair
				}
				if rng.Intn(8) == 0 {
					s = int32(d) // self loop
				}
				b.Col = append(b.Col, s)
			}
			b.RowPtr[d+1] = int32(len(b.Col))
		}
		blocks[l] = b
		nDst = nSrc
	}
	return &sampler.MiniBatch{Blocks: blocks, Targets: blocks[L-1].Dst}
}

// sourceMajorFixtures returns ragged and sampled mini-batches (fanout 0
// take-all and fanout-bounded layers) over dims, with features for each.
func sourceMajorFixtures(t *testing.T, dims []int, degrees []int32) ([]*sampler.MiniBatch, []*tensor.Matrix) {
	t.Helper()
	rng := tensor.NewRNG(71)
	var mbs []*sampler.MiniBatch
	for i := 0; i < 12; i++ {
		mbs = append(mbs, raggedMiniBatch(rng, len(dims)-1))
	}
	spec := datagen.Spec{Name: "sm", NumVertices: int64(len(degrees)), NumEdges: 6 * int64(len(degrees)), FeatDims: dims}
	ds, err := datagen.Materialize(spec, 1.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, fanouts := range [][]int{{6, 6}, {0, 4}, {0, 0}} {
		s, err := sampler.New(ds.Graph, fanouts, ds.Labels)
		if err != nil {
			t.Fatal(err)
		}
		mb, err := s.Sample([]int32{3, 7, 11, 19, 23, 150}, rng)
		if err != nil {
			t.Fatal(err)
		}
		mbs = append(mbs, mb)
	}
	xs := make([]*tensor.Matrix, len(mbs))
	for i, mb := range mbs {
		xs[i] = tensor.New(len(mb.InputNodes()), dims[0])
		tensor.NormalInit(xs[i], 1, rng)
	}
	return mbs, xs
}

// TestBackendSourceMajorMatchesSortOracle pins the counting-sort ordering
// to the comparison-sort oracle bit for bit: per block the edge list, its
// aligned weights and the self weights; per forward pass the logits and
// every ForwardStats field — for GCN (mean and degree-normalised), SAGE
// and GIN, on ragged blocks (duplicate pairs, empty blocks) and sampled
// ones (fanout-bounded and take-all).
func TestBackendSourceMajorMatchesSortOracle(t *testing.T) {
	dims := []int{7, 5, 3}
	degrees := make([]int32, 300)
	for i := range degrees {
		degrees[i] = int32(i % 17)
	}
	mbs, xs := sourceMajorFixtures(t, dims, degrees)
	cfgs := []gnn.Config{
		{Kind: gnn.GCN, Dims: dims},
		{Kind: gnn.GCN, Dims: dims, Degrees: degrees},
		{Kind: gnn.SAGE, Dims: dims},
		{Kind: gnn.GIN, Dims: dims, GINEps: 0.3},
	}
	f32Equal := func(a, b []float32) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				return false
			}
		}
		return true
	}
	for ci, cfg := range cfgs {
		m, err := gnn.NewModel(cfg, tensor.NewRNG(uint64(5+ci)))
		if err != nil {
			t.Fatal(err)
		}
		bk := U250Backend(dims[0]) // one backend across fixtures: scratch reuse is covered
		for i, mb := range mbs {
			for l, b := range mb.Blocks {
				wantE, wantW, wantS := oracleSortedWeightedEdges(cfg, b)
				gotE, gotW, gotS := bk.sc.sortedWeightedEdges(cfg, b)
				if len(gotE) != len(wantE) {
					t.Fatalf("cfg %d mb %d layer %d: %d edges, oracle %d", ci, i, l, len(gotE), len(wantE))
				}
				for k := range wantE {
					if gotE[k] != wantE[k] {
						t.Fatalf("cfg %d mb %d layer %d: edge %d = %v, oracle %v", ci, i, l, k, gotE[k], wantE[k])
					}
				}
				if !f32Equal(gotW, wantW) || !f32Equal(gotS, wantS) {
					t.Fatalf("cfg %d mb %d layer %d: weights differ from the oracle", ci, i, l)
				}
			}
			want, wantStats := oracleForward(bk, m, mb, xs[i])
			got, gotStats, err := bk.Forward(m, mb, xs[i])
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("cfg %d mb %d: logits differ from the oracle by %g", ci, i, got.MaxAbsDiff(want))
			}
			if *gotStats != wantStats {
				t.Fatalf("cfg %d mb %d: stats %+v, oracle %+v", ci, i, *gotStats, wantStats)
			}
		}
	}
}
