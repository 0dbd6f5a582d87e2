package main

import (
	"math"
	"runtime"
	"time"
)

// probeRefSec is the probe's duration at the host speed normalised rates are
// quoted at.
const probeRefSec = 0.05

// probeBuf is the probe's 2 MiB working set. A package-level array lives
// outside the Go heap, so it is not counted in live_heap_mb, and probing
// neither allocates nor runs any code of the program under test.
var probeBuf [1 << 18]uint64

var probeSink uint64

// probe times a fixed loop of dependent random reads and writes over
// probeBuf, after a full collection so that no GC cycle of the program
// overlaps it. Its time tracks the host's speed, which on a shared VM drifts
// by tens of percent over minutes whatever the benchmark does: over 160 s of
// serve-hot on a 2-vCPU VM, 30-run window medians of the wall rate ranged
// 0.85-1.22 of their median, and of the probe-normalised rate 0.95-1.09.
func probe() float64 {
	runtime.GC()
	t0 := time.Now()
	x := uint64(88172645463325252)
	for r := 0; r < 40; r++ {
		for i := range probeBuf {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			probeBuf[(x>>11)&(1<<18-1)] += x
			probeBuf[i] ^= x
		}
	}
	probeSink += x
	return time.Since(t0).Seconds()
}

// normRate is the median over timed units of items per wall second, each
// scaled to probeRefSec host speed by the mean h of the probes taken just
// before and just after the unit (probes[i] precedes walls[i] and
// probes[i+1] follows it), as rate x sqrt(h / probeRefSec). The square root
// is a compromise between the workloads' elasticities to the
// memory-latency-bound probe, which differ and drift: fitted per 10-run set
// on a 2-vCPU VM they ranged from about 0.3 (train-cluster) to 1 (serve-hot,
// and train-fpga in one set). With it, over ten seeds per workload, the
// scaled rate spread (IQR/median) 0.03-0.105 where the raw wall rate spread
// 0.07-0.24.
func normRate(items float64, walls, probes []float64) float64 {
	rates := make([]float64, len(walls))
	for i, w := range walls {
		host := (probes[i] + probes[i+1]) / 2
		rates[i] = items / w * math.Sqrt(host/probeRefSec)
	}
	return median(rates)
}
