package tensor

import "testing"

// The parallel GatherRows must be bitwise the serial oracle at every worker
// count and SIMD level: destination rows are disjoint, so neither the
// ParallelRows split nor the copyRow kernel may change a bit. Widths include
// non-multiples of the 8-lane SIMD stride so remainder handling is covered,
// and the index list repeats rows (a gather is not a permutation). Each
// worker count gathers a prefix of the list long enough to fork that many
// ways.
func TestGatherRowsMatchesSerialOracle(t *testing.T) {
	rng := NewRNG(23)
	pars := []int{1, 2, 3, 8}
	maxPar := pars[len(pars)-1]
	for _, cols := range []int{1, 5, 8, 13, 37, 128} {
		src := FromSlice(50, cols, randSlice(rng, 50*cols))
		all := make([]int32, 201+maxPar*Grain/cols)
		for i := range all {
			all[i] = int32(rng.Intn(50))
		}
		oracle := New(len(all), cols)
		GatherRowsSerial(oracle, src, all)

		for _, par := range pars {
			idx := all[:201]
			if par > 1 {
				idx = all[:201+par*Grain/cols]
			}
			want := FromSlice(len(idx), cols, oracle.Data[:len(idx)*cols])
			restore := withParallelism(par)
			requireWorkers(t, len(idx), len(idx)*cols, par)
			for _, l := range availableLevels() {
				withSIMD(t, l, func() {
					dst := New(len(idx), cols)
					GatherRows(dst, src, idx)
					if !dst.Equal(want) {
						t.Fatalf("GatherRows cols=%d par=%d level=%v diverges from serial oracle",
							cols, par, l)
					}
				})
			}
			restore()
		}
	}
}
