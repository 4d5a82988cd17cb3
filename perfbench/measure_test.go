package main

import (
	"syscall"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}

	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 90); err == nil {
		t.Error("p90 over 99 samples was reported; it must be refused")
	}
	xs = append(xs, 100)
	if got, err := percentile(xs, 90); err != nil || got != 90 {
		t.Errorf("p90 of 1..100 = %g, %v; want 90", got, err)
	}
	if got, err := percentile(xs, 50); err != nil || got != 50 {
		t.Errorf("p50 of 1..100 = %g, %v; want 50", got, err)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestRusageCPU(t *testing.T) {
	ru := syscall.Rusage{
		Utime: syscall.Timeval{Sec: 1, Usec: 250000},
		Stime: syscall.Timeval{Sec: 0, Usec: 500000},
	}
	if got := rusageCPU(ru); got != 1750*time.Millisecond {
		t.Errorf("rusageCPU = %v, want 1.75s", got)
	}

	// A busy loop on this goroutine is charged to the process: the CPU
	// delta covers most of the spin and cannot exceed what wall time
	// allows on the available cores.
	const spin = 200 * time.Millisecond
	c0, w0 := cpuTime(), time.Now()
	x := 0
	for time.Since(w0) < spin {
		x++
	}
	cpu, wall := cpuTime()-c0, time.Since(w0)
	if cpu < spin/2 {
		t.Errorf("spinning %v charged only %v CPU (%d iterations)", wall, cpu, x)
	}
	if cpu > 4*wall {
		t.Errorf("spinning %v charged %v CPU", wall, cpu)
	}
}
