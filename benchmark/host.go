package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"
)

// maxProcs caps the processors the benchmark gives the runtime, and
// with them the goroutines or connections that generate load.
const maxProcs = 4

func procs() int {
	if n := runtime.NumCPU(); n < maxProcs {
		return n
	}
	return maxProcs
}

// hostStamp identifies where a row of numbers was taken.
func hostStamp() string {
	return fmt.Sprintf("%s/%s cpus=%d gomaxprocs=%d %s",
		runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

var spinSink uint64

// spinMops times a fixed xorshift loop on one core, best of three: a
// yardstick that moves only when the host does, taken before and after
// every window so a noisy run can be told from a slow program.
func spinMops() float64 {
	const n = 1 << 23
	best := 0.0
	for try := 0; try < 3; try++ {
		x := uint64(88172645463325252)
		start := time.Now()
		for i := 0; i < n; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		d := time.Since(start)
		spinSink += x
		if mops := n / d.Seconds() / 1e6; mops > best {
			best = mops
		}
	}
	return best
}

func drift(before, after float64) float64 {
	if before == 0 {
		return 0
	}
	return math.Abs(after-before) / before
}

// memMark is the allocator's state at one instant.
type memMark struct {
	totalAlloc uint64
	gcCPU      float64 // cumulative GC CPU seconds
	allCPU     float64 // cumulative CPU seconds available to the process
}

func markMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	m := memMark{totalAlloc: ms.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		m.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		m.allCPU = s[1].Value.Float64()
	}
	return m
}

// liveHeapMiB forces a collection and returns what survives it.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// gcShare is the share of the process's CPU the collector took
// between two marks.
func gcShare(a, b memMark) float64 {
	if b.allCPU <= a.allCPU {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / (b.allCPU - a.allCPU)
}
