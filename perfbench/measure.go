package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// cpuTime returns the process's user+sys CPU time from getrusage. It
// covers every thread, so GC workers running on another core are
// charged to the phase that made them run.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return rusageCPU(ru)
}

// rusageCPU sums a Rusage's user and system times.
func rusageCPU(ru syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's peak resident set size so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

// runtimeSample holds the runtime's GC and total CPU-seconds estimates.
type runtimeSample struct {
	gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64()}
}

// heapAllocs returns the cumulative heap allocation count and bytes.
// ReadMemStats stops the world and flushes every P's allocation cache
// first, so unlike runtime/metrics' span-granular figures the count is
// exact: it repeats between runs of a deterministic program.
func heapAllocs() (objects, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// median returns the middle of xs (mean of the two middles for even
// lengths); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentileLadder is the set of latency percentiles the benchmark may
// report, lowest first.
var percentileLadder = []float64{50, 90, 99, 99.9}

// supported reports whether n samples support percentile p: at least
// ten samples must lie beyond it, so p90 needs 100 samples and p99
// needs 1000. A p90 over fewer samples is really a maximum.
func supported(p float64, n int) bool {
	return float64(n)*(100-p)/100 >= 10-1e-9
}

// highestPercentile returns the highest ladder percentile n samples
// support, or 0 when they support none.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if supported(p, n) {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile of xs, refusing
// one the sample count does not support.
func percentile(xs []float64, p float64) (float64, error) {
	if !supported(p, len(xs)) {
		return 0, fmt.Errorf("p%g needs %d samples, have %d",
			p, int(math.Ceil(1000/(100-p))), len(xs))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], nil
}
