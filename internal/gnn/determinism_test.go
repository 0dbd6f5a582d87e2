package gnn

import (
	"testing"

	"repro/internal/tensor"
)

// Single-trainer loop (no synchronizer concurrency): parallelism must not
// change a single bit of the training trajectory. The fixture is wide
// enough (4096 input features, 128 targets) that layer 0's aggregation, its
// backward scatter, dense update and gradient GEMMs all clear
// 4·tensor.Grain and fork at par 4.
func TestDeterminismAcrossParallelism(t *testing.T) {
	run := func(par int) *Parameters {
		restore := withParallelism(par)
		defer restore()
		dims := []int{4096, 32, 5}
		fx := makeFixture(t, dims, 128, 77)
		m, err := NewModel(Config{Kind: SAGE, Dims: dims}, tensor.NewRNG(3))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			g, _, _, err := m.TrainStep(fx.mb, fx.x)
			if err != nil {
				t.Fatal(err)
			}
			for l := range m.Params.Weights {
				tensor.Axpy(m.Params.Weights[l], -0.1, g.Weights[l])
				tensor.Axpy(m.Params.Biases[l], -0.1, g.Biases[l])
			}
		}
		return m.Params
	}
	p1 := run(1)
	p4 := run(4)
	for l := range p1.Weights {
		if !p1.Weights[l].Equal(p4.Weights[l]) || !p1.Biases[l].Equal(p4.Biases[l]) {
			t.Fatalf("layer %d: parallelism changed the training trajectory", l)
		}
	}
}

// The SIMD mirror of the test above: generic, SSE and AVX2 (where the CPU
// has them) must produce the same training trajectory bit for bit — the
// kernels keep multiply and add unfused exactly so this holds.
func TestDeterminismAcrossSIMDLevels(t *testing.T) {
	run := func(lvl tensor.SIMDLevel) *Parameters {
		prev, err := tensor.SetSIMDLevel(lvl)
		if err != nil {
			t.Fatalf("SetSIMDLevel(%v): %v", lvl, err)
		}
		defer tensor.SetSIMDLevel(prev)
		dims := []int{8, 16, 5}
		fx := makeFixture(t, dims, 32, 77)
		m, err := NewModel(Config{Kind: SAGE, Dims: dims}, tensor.NewRNG(3))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			g, _, _, err := m.TrainStep(fx.mb, fx.x)
			if err != nil {
				t.Fatal(err)
			}
			for l := range m.Params.Weights {
				tensor.Axpy(m.Params.Weights[l], -0.1, g.Weights[l])
				tensor.Axpy(m.Params.Biases[l], -0.1, g.Biases[l])
			}
		}
		return m.Params
	}
	ref := run(tensor.SIMDGeneric)
	for lvl := tensor.SIMDSSE; lvl <= tensor.DetectedSIMDLevel(); lvl++ {
		p := run(lvl)
		for l := range ref.Weights {
			if !ref.Weights[l].Equal(p.Weights[l]) || !ref.Biases[l].Equal(p.Biases[l]) {
				t.Fatalf("layer %d: SIMD level %v changed the training trajectory", l, lvl)
			}
		}
	}
}
