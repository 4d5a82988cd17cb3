package main

import (
	"math"
	"reflect"
	"testing"
)

func TestFastestSegments(t *testing.T) {
	reps := [][]float64{
		{1, 5, 2},
		{3, 4, math.NaN()},
		{2, 9, 7},
	}
	for k, want := range [][]float64{{1, 4, 2}, {2, 5, 7}, {3, 9, 7}, {3, 9, 7}} {
		got, err := fastest(reps, k)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("fastest(k=%d) = %v, %v; want %v", k, got, err, want)
		}
	}
	// A burst that hits a different rep in each segment moves every rep's
	// total, and so the median rep, but not the segments' fastest repeats.
	burst := [][]float64{
		{1, 1, 1},
		{9, 1, 1},
		{1, 9, 1},
		{1, 1, 9},
	}
	if got, err := fastestTotal(burst); err != nil || got != 3 {
		t.Errorf("fastestTotal = %g, %v; want 3", got, err)
	}
	if _, err := fastest([][]float64{{1, 2}, {1}}, 0); err == nil {
		t.Error("reps with different segment counts were accepted")
	}
}

func TestJobSamples(t *testing.T) {
	// Two sweeps of two segments each; jobs resolve at each segment's end
	// and are timed from their sweep's submission.
	parts := make([][]float64, 3)
	for r := range parts {
		parts[r] = []float64{12 - float64(r), 22 - float64(r), 32 - float64(r), 42 - float64(r)}
	}
	jobs := make([][2]int, 0, 52)
	for len(jobs) < 50 {
		jobs = append(jobs, [2]int{0, 1}, [2]int{0, 2}, [2]int{2, 3}, [2]int{2, 4})
	}
	got, err := jobSamples(parts, jobs[:50])
	if err != nil {
		t.Fatal(err)
	}
	// 50 jobs need the two fastest repeats of each part for 100 samples.
	if len(got) != 100 {
		t.Fatalf("%d samples, want 100", len(got))
	}
	if got[0] != 10 || got[1] != 30 || got[2] != 30 || got[3] != 70 || got[50] != 11 || got[51] != 32 {
		t.Errorf("samples start %v, then %v", got[:4], got[50:54])
	}
	if _, err := jobSamples(parts, jobs[:20]); err == nil {
		t.Error("20 jobs over 3 reps gave 100 samples")
	}
}

func TestTimelineJobs(t *testing.T) {
	tl := newTimeline()
	tl.begin()        // mark 1
	tl.progress(1, 3) // mark 2
	tl.progress(3, 3) // mark 3: two cells at once
	tl.progress(1, 1) // mark 4: a second engine batch of the same sweep
	tl.begin()        // mark 5
	tl.progress(1, 1) // mark 6
	tl.mark()         // mark 7: the rep's end
	cpu, wall, jobs := tl.segments()
	if len(cpu) != 7 || len(wall) != 7 {
		t.Fatalf("%d and %d segments, want 7", len(cpu), len(wall))
	}
	want := [][2]int{{1, 2}, {1, 3}, {1, 3}, {1, 4}, {5, 6}}
	if !reflect.DeepEqual(jobs, want) {
		t.Errorf("jobs %v, want %v", jobs, want)
	}
	for i := range wall {
		if wall[i] < 0 || cpu[i] < 0 {
			t.Errorf("segment %d: cpu %g wall %g", i, cpu[i], wall[i])
		}
	}
}
