package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// timeline cuts one rep into segments at marks: the rep's start and
// end, each sweep's submission and each progress callback of a
// single-worker sweep. Every mark reads the process CPU time and the
// wall clock, so a segment's cost is the difference of two marks. A
// deterministic single-worker rep makes the same marks in every rep,
// so segment k is the same work in every rep of a run.
type timeline struct {
	mu    sync.Mutex
	c0    time.Duration
	w0    time.Time
	cpu   []float64 // seconds since the rep's start, at each mark
	wall  []float64
	batch int      // mark at which the current sweep was submitted
	last  int      // done count of the engine's current batch
	jobs  [][2]int // per resolved cell: submission mark, resolution mark
}

func newTimeline() *timeline {
	t := &timeline{c0: cpuTime(), w0: time.Now()}
	t.markLocked()
	return t
}

func (t *timeline) markLocked() int {
	t.cpu = append(t.cpu, (cpuTime() - t.c0).Seconds())
	t.wall = append(t.wall, time.Since(t.w0).Seconds())
	return len(t.cpu) - 1
}

// mark adds a mark; the rep's end is one.
func (t *timeline) mark() {
	t.mu.Lock()
	t.markLocked()
	t.mu.Unlock()
}

// begin marks a sweep's submission: the cells it resolves are timed
// from here.
func (t *timeline) begin() {
	t.mu.Lock()
	t.batch, t.last = t.markLocked(), 0
	t.mu.Unlock()
}

// progress is the engine's progress callback. A sweep may run several
// engine batches; a callback whose done count does not grow starts a
// new one.
func (t *timeline) progress(done, _ int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if done <= t.last {
		t.last = 0
	}
	m := t.markLocked()
	for ; t.last < done; t.last++ {
		t.jobs = append(t.jobs, [2]int{t.batch, m})
	}
}

// segments returns each segment's CPU and wall seconds and, for each
// resolved cell, the range of segments between its submission and its
// resolution.
func (t *timeline) segments() (cpu, wall []float64, jobs [][2]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := 1; i < len(t.cpu); i++ {
		cpu = append(cpu, t.cpu[i]-t.cpu[i-1])
		wall = append(wall, t.wall[i]-t.wall[i-1])
	}
	return cpu, wall, t.jobs
}

// fastest returns, position by position, the k-th fastest (k = 0 is the
// fastest) of the reps' values. NaN values (failed jobs) are skipped; a
// position with k or fewer values keeps its slowest. Every rep must
// have the same number of positions.
//
// Host interference only ever adds time, and it comes in bursts that
// last from milliseconds to minutes. A segment's fastest repeat is the
// one the bursts disturbed least. Taken segment by segment, over
// segments far shorter than a rep, the fastest repeats leave out every
// burst that misses one repeat of each segment, while a median over
// reps keeps any burst that lasts half the run.
func fastest(reps [][]float64, k int) ([]float64, error) {
	if len(reps) == 0 {
		return nil, fmt.Errorf("no reps")
	}
	n := len(reps[0])
	out := make([]float64, n)
	col := make([]float64, 0, len(reps))
	for i := 0; i < n; i++ {
		col = col[:0]
		for r, rep := range reps {
			if len(rep) != n {
				return nil, fmt.Errorf("rep %d has %d segments, rep 0 has %d", r, len(rep), n)
			}
			if !math.IsNaN(rep[i]) {
				col = append(col, rep[i])
			}
		}
		if len(col) == 0 {
			return nil, fmt.Errorf("position %d has no value in any rep", i)
		}
		sort.Float64s(col)
		out[i] = col[min(k, len(col)-1)]
	}
	return out, nil
}

// fastestTotal sums each segment's fastest repeat: the cost of one rep
// with the run's least disturbed timing of every segment.
func fastestTotal(reps [][]float64) (float64, error) {
	f, err := fastest(reps, 0)
	return sum(f), err
}

// jobSamples returns job latencies rebuilt from the fastest repeats of
// each part: a job's latency is the sum of its parts (parts[from:to]).
// The fastest repeats give one latency per job, the second fastest
// another, and so on, until there are at least minJobSamples of them,
// so the percentile rule holds without reaching into the slow repeats.
func jobSamples(parts [][]float64, jobs [][2]int) ([]float64, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("no jobs")
	}
	m := (minJobSamples + len(jobs) - 1) / len(jobs)
	if m > len(parts) {
		return nil, fmt.Errorf("%d reps of %d jobs give fewer than %d samples", len(parts), len(jobs), minJobSamples)
	}
	var out []float64
	for k := 0; k < m; k++ {
		f, err := fastest(parts, k)
		if err != nil {
			return nil, err
		}
		for _, j := range jobs {
			if j[0] < 0 || j[0] > j[1] || j[1] > len(f) {
				return nil, fmt.Errorf("job range %v outside %d parts", j, len(f))
			}
			out = append(out, sum(f[j[0]:j[1]]))
		}
	}
	return out, nil
}
