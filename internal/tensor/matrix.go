// Package tensor provides dense float32 matrices and the numeric kernels
// used by the GNN trainers: cache-blocked parallel matrix multiplication,
// element-wise and fused operations, activations, loss functions, and the
// Workspace arena behind the zero-allocation training/serving hot paths.
//
// Kernels are stdlib-only Go, with the innermost row updates in SIMD
// assembly on amd64, dispatched at runtime between AVX2 (8 lanes) and the
// SSE baseline (axpy_avx2_amd64.s, axpy_amd64.s; a pure-Go fallback serves
// other architectures). Every dispatch level is bit-identical — see simd.go
// for detection and the SetSIMDLevel/TENSOR_SIMD overrides. Parallel
// kernels split work across goroutines by contiguous row blocks. Each call
// runs on min(SetParallelism setting, runtime.GOMAXPROCS(0), rows,
// work/Grain) goroutines (see Workers): the setting, which defaults to
// runtime.NumCPU(), is an upper bound, and a call too small to repay the
// fork/join runs inline on the caller's goroutine.
package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelism is the upper bound on worker goroutines per kernel call.
var parallelism int64 = int64(runtime.NumCPU())

// SetParallelism sets the upper bound on goroutines per kernel call (see
// Workers for the count a call actually uses). Values below 1 are clamped
// to 1. It returns the previous setting.
func SetParallelism(n int) int {
	if n < 1 {
		n = 1
	}
	return int(atomic.SwapInt64(&parallelism, int64(n)))
}

// Parallelism reports the current upper bound on goroutines per kernel call.
func Parallelism() int { return int(atomic.LoadInt64(&parallelism)) }

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// New returns a zeroed Rows×Cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data as a Rows×Cols matrix. The slice is used directly
// (not copied) and must have length rows*cols.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice got %d elements for %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns a view (no copy) of row i.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Zero sets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Equal reports whether m and other have identical shape and elements.
func (m *Matrix) Equal(other *Matrix) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		if v != other.Data[i] {
			return false
		}
	}
	return true
}

// AllClose reports whether m and other have identical shape and all elements
// within tol of each other (absolute difference).
func (m *Matrix) AllClose(other *Matrix, tol float64) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(float64(v)-float64(other.Data[i])) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the maximum absolute element-wise difference between m
// and other, which must have the same shape.
func (m *Matrix) MaxAbsDiff(other *Matrix) float64 {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("tensor: MaxAbsDiff shape mismatch")
	}
	var max float64
	for i, v := range m.Data {
		d := math.Abs(float64(v) - float64(other.Data[i]))
		if d > max {
			max = d
		}
	}
	return max
}

// String formats small matrices for debugging.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}

// Grain is the least work, in work units, that a forked kernel call gives
// each worker: one unit is one flop for the GEMMs, one element for gathers
// and bias passes, and one edge×column product for aggregation. On a 2-vCPU
// Xeon a 2-way split of a GEMM or gather starts to beat the inline call
// between 2^18 and 2^20 units (the ForkJoin rows of BENCH_kernels.json), so
// a fork needs at least 2·Grain = 2^20. One fork/join costs 1–2 µs, and a
// Grain-sized share (~25 µs of GEMM) carries about 20× that.
const Grain = 1 << 19

// Workers reports how many goroutines a kernel call over rows independent
// rows carrying work units of work (see Grain) runs on:
// min(Parallelism(), runtime.GOMAXPROCS(0), rows, work/Grain), and at least
// 1. At 1 the call runs inline on the caller's goroutine.
func Workers(rows, work int) int {
	p := Parallelism()
	if p > rows {
		p = rows
	}
	if w := work / Grain; p > w {
		p = w
	}
	if p <= 1 {
		return 1
	}
	// GOMAXPROCS takes the scheduler lock: only calls that would fork ask.
	if g := runtime.GOMAXPROCS(0); p > g {
		p = g
	}
	return p
}

// ParallelRows runs fn over [0, rows) split into Workers(rows, work)
// contiguous chunks, one goroutine each, or inline when that is 1. fn
// receives [lo, hi). Hot call sites test Workers first and call their range
// kernel directly when it is 1, because the closure they would pass here
// escapes to the heap whether or not the call forks.
func ParallelRows(rows, work int, fn func(lo, hi int)) {
	p := Workers(rows, work)
	if p <= 1 {
		fn(0, rows)
		return
	}
	chunk := (rows + p - 1) / p
	var wg sync.WaitGroup
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
