// Command perfbench is the repository's benchmark. It runs one named
// workload against the simulator, engine and service packages through
// their public functions, checks the outputs are correct, and prints
// one JSON line of metrics as its last line of standard output:
//
//	go run . --workload fig9-cold --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs untraced
// and then traced (CPU profile plus spans) reps and reports the
// per-layer metrics. See README.md for the catalogue.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// defaultSeed is the seed the pinned digests were taken at.
const defaultSeed = 1

// minReps is the fewest timed reps a run makes, however short
// --seconds is, so a median and a repeat check always exist.
const minReps = 3

// minJobSamples is the latency sample count p90 needs.
const minJobSamples = 100

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", defaultSeed, "input seed")
	seconds := flag.Float64("seconds", 25, "how long the timed phase runs")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	ctx := context.Background()

	// Input generation is the benchmark's own work, and its cost moves
	// with the seed (attack-zoo searches for a benign mix), so it runs
	// once, untimed.
	b, err := mk(*seed)
	if err != nil {
		return fmt.Errorf("set up %s: %w", *name, err)
	}
	if b.singleWorker() {
		// A one-worker sweep needs one core. A second P would only let
		// the garbage collector contend for another core with whatever
		// else the host runs, which shows as wall time, not as work.
		runtime.GOMAXPROCS(1)
	}

	// Set-up proper is the program's: build the workload's own system
	// and step it. The first set-up runs before anything is timed, so
	// lazy initialization is done; endToEnd repeats it before every rep.
	tgt, err := b.target()
	if err != nil {
		return fmt.Errorf("set up %s: %w", *name, err)
	}
	t0 := time.Now()
	if err := tgt.warm(ctx); err != nil {
		return fmt.Errorf("warm %s: %w", *name, err)
	}
	setup := time.Since(t0).Seconds()

	c := &checker{name: *name, seed: *seed, det: b.singleWorker()}
	budget := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *trace == 0 {
		res, err = endToEnd(ctx, b, c, budget, tgt, setup)
	} else {
		res, err = perLayer(ctx, b, c, budget, *name, *seed)
	}
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = c.attempted, c.failed
	res.Correct = c.failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// timing is one phase of timed reps.
type timing struct {
	cpu, wall []float64   // seconds per rep
	segCPU    [][]float64 // per rep: CPU seconds of each timeline segment
	segWall   [][]float64 // per rep: wall seconds of each timeline segment
	parts     [][]float64 // per rep: the latency parts jobs sum, ms
	jobs      [][2]int    // each job's range of parts, the same in every rep
	setup     []float64   // seconds of the set-up before each rep
	ticks     uint64      // delivered cell ticks per rep
	outs      []repOut
	rt0, rt1  runtimeSample
}

// timeReps runs reps until budget is spent (at least minReps, and at
// least minJobSamples latency samples), checking each one. A non-nil
// setup runs, timed, before every rep.
func timeReps(ctx context.Context, b bench, c *checker, budget time.Duration, tr *tracer, label string,
	setup func(context.Context) error) timing {
	var t timing
	t.rt0 = readRuntime()
	deadline := time.Now().Add(budget)
	for i := 0; ; i++ {
		if i >= minReps && len(t.parts)*len(t.jobs) >= minJobSamples &&
			time.Now().Add(time.Duration(median(t.wall)*float64(time.Second))).After(deadline) {
			break
		}
		if setup != nil {
			t0 := time.Now()
			if err := setup(ctx); err != nil {
				c.attempted++
				c.failed++
				fmt.Fprintf(os.Stderr, "set-up before rep %s%d failed: %v\n", label, i, err)
				break
			}
			t.setup = append(t.setup, time.Since(t0).Seconds())
		}
		// Each rep starts from a collected heap, so its CPU does not
		// depend on the garbage earlier work left behind. The freed memory
		// stays with the process, as it would in a long-running server:
		// returned to the OS, it cost each rep tens of thousands of page
		// faults, whose price on a virtual machine moves with the host.
		runtime.GC()
		n0, b0 := heapAllocs()
		tl := newTimeline()
		out, err := b.rep(ctx, tr, fmt.Sprintf("%s%d", label, i), tl)
		tl.mark()
		if err != nil {
			c.attempted++
			c.failed++
			fmt.Fprintf(os.Stderr, "rep %s%d failed: %v\n", label, i, err)
			if i >= minReps && time.Now().After(deadline) {
				break
			}
			continue
		}
		n1, b1 := heapAllocs()
		out.counts["runtime.heap_allocs"] = n1 - n0
		out.counts["runtime.heap_alloc_bytes"] = b1 - b0
		segCPU, segWall, jobs := tl.segments()
		parts := out.jobMS
		if parts == nil {
			for _, w := range segWall {
				parts = append(parts, w*1e3)
			}
		} else {
			jobs = make([][2]int, len(parts))
			for j := range jobs {
				jobs[j] = [2]int{j, j + 1}
			}
		}
		if len(t.outs) > 0 && (len(segCPU) != len(t.segCPU[0]) || !reflect.DeepEqual(jobs, t.jobs)) {
			out.problems = append(out.problems, fmt.Sprintf(
				"rep timeline has %d segments and %d jobs, the first rep's had %d and %d",
				len(segCPU), len(jobs), len(t.segCPU[0]), len(t.jobs)))
		}
		if !c.check(out) {
			if i >= minReps && time.Now().After(deadline) {
				break
			}
			continue
		}
		t.jobs = jobs
		t.cpu, t.wall = append(t.cpu, sum(segCPU)), append(t.wall, sum(segWall))
		t.segCPU, t.segWall, t.parts = append(t.segCPU, segCPU), append(t.segWall, segWall), append(t.parts, parts)
		t.ticks = out.ticks
		t.outs = append(t.outs, out)
	}
	t.rt1 = readRuntime()
	return t
}

// estimate is a phase's timing figures, from each segment's and each
// job part's fastest repeats (see fastest).
type estimate struct {
	cpu, wall float64   // seconds of one rep
	jobs      []float64 // job latency samples, ms
}

func (t timing) estimate() (estimate, error) {
	var e estimate
	var err error
	if len(t.outs) == 0 {
		return e, fmt.Errorf("no rep succeeded")
	}
	if e.cpu, err = fastestTotal(t.segCPU); err != nil {
		return e, err
	}
	if e.wall, err = fastestTotal(t.segWall); err != nil {
		return e, err
	}
	e.jobs, err = jobSamples(t.parts, t.jobs)
	return e, err
}

func endToEnd(ctx context.Context, b bench, c *checker, budget time.Duration, tgt probeTarget, setupS float64) (*result, error) {
	t := timeReps(ctx, b, c, budget, nil, "rep", tgt.warm)
	e, err := t.estimate()
	if err != nil {
		return nil, err
	}
	p50, err := percentile(e.jobs, 50)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(e.jobs, 90)
	if err != nil {
		return nil, err
	}
	hp := highestPercentile(len(e.jobs))
	top, _ := percentile(e.jobs, hp)
	fmt.Fprintf(os.Stderr, "rep cpu s: %.3f\nrep wall s: %.3f\nset-up s: %.4f\n", t.cpu, t.wall, t.setup)
	fmt.Fprintf(os.Stderr, "%d reps of %d segments; median rep cpu %.3f s, wall %.3f s; fastest-segment rep cpu %.3f s, wall %.3f s\n",
		len(t.cpu), len(t.segCPU[0]), median(t.cpu), median(t.wall), e.cpu, e.wall)
	fmt.Fprintf(os.Stderr, "%d jobs per rep; %d job latency samples, highest supported percentile p%g = %.3f ms\n",
		len(t.jobs), len(e.jobs), hp, top)
	return &result{Metrics: map[string]metric{
		"setup_s":             {median(append(t.setup, setupS)), "s"},
		"run_cpu_s":           {e.cpu, "s"},
		"run_wall_s":          {e.wall, "s"},
		"sim_ticks_per_cpu_s": {float64(t.ticks) / e.cpu, "1/s"},
		"job_p50_ms":          {p50, "ms"},
		"job_p90_ms":          {p90, "ms"},
		"max_rss_mb":          {peakRSSMiB(), "MiB"},
	}}, nil
}

// simLayers are the layers whose self CPU is normalized per simulated
// tick.
var simLayers = []string{"sched", "core", "cpu", "cache", "workload", "dram", "sim"}

func perLayer(ctx context.Context, b bench, c *checker, budget time.Duration, name string, seed uint64) (*result, error) {
	plain := timeReps(ctx, b, c, budget/2, nil, "plain", nil)

	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("start profile: %w", err)
	}
	traced := timeReps(ctx, b, c, budget/2, tr, "traced", nil)
	pprof.StopCPUProfile()
	plainEst, err := plain.estimate()
	if err != nil {
		return nil, fmt.Errorf("untraced reps: %w", err)
	}
	tracedEst, err := traced.estimate()
	if err != nil {
		return nil, fmt.Errorf("traced reps: %w", err)
	}
	layers, err := attributeProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	tgt, err := b.target()
	if err != nil {
		return nil, err
	}
	pr, err := runProbe(ctx, tr, tgt)
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	spans := filepath.Join(".bench_build", "spans", fmt.Sprintf("spans-%s-seed%d.json", name, seed))
	if err := tr.write(spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}

	reps := float64(len(traced.outs))
	var simTicks float64
	for _, o := range traced.outs {
		simTicks += o.layer["sim.simulated_ticks"]
	}
	m := map[string]metric{}
	for _, l := range simLayers {
		m[l+".self_ns_per_tick"] = metric{float64(layers[l]) / simTicks, "ns"}
	}
	for _, l := range []string{"snap", "engine", "service", "telemetry", "runtime", "other"} {
		m[l+".self_ms"] = metric{float64(layers[l]) / 1e6 / reps, "ms"}
	}
	last := traced.outs[len(traced.outs)-1]
	units := map[string]string{"engine.reuse_ratio": "ratio", "engine.snap_hit_ratio": "ratio",
		"engine.snap_bytes": "bytes", "service.queue_wait_ms": "ms", "service.run_ms": "ms", "service.overhead_ms": "ms"}
	for _, k := range perRepLayerMetrics {
		u := units[k]
		if u == "" {
			u = "count"
		}
		m[k] = metric{last.layer[k], u}
	}
	m["snap.full_encode_ms"] = metric{pr.fullEncodeMS, "ms"}
	m["snap.delta_encode_ms"] = metric{pr.deltaEncodeMS, "ms"}
	m["snap.restore_ms"] = metric{pr.restoreMS, "ms"}
	m["snap.full_bytes"] = metric{float64(pr.fullBytes), "bytes"}
	m["snap.delta_bytes"] = metric{float64(pr.deltaBytes), "bytes"}
	m["sim.newsystem_ms"] = metric{pr.newSystemMS, "ms"}
	m["cache.llc_hit_rate"] = metric{pr.llcHitRate, "ratio"}
	m["runtime.alloc_mb"] = metric{float64(last.counts["runtime.heap_alloc_bytes"]) / (1 << 20), "MiB"}
	gcFrac := 0.0
	if d := plain.rt1.totalCPU - plain.rt0.totalCPU; d > 0 {
		gcFrac = (plain.rt1.gcCPU - plain.rt0.gcCPU) / d
	}
	m["runtime.gc_cpu_frac"] = metric{gcFrac, "ratio"}
	m["job.samples"] = metric{float64(len(plainEst.jobs)), "count"}
	m["trace.overhead_frac"] = metric{tracedEst.cpu/plainEst.cpu - 1, "ratio"}
	printLayers(layers)
	return &result{Metrics: m}, nil
}

// perRepLayerMetrics are the per-layer figures each rep reports itself
// (deterministic counts on the sim workloads).
var perRepLayerMetrics = []string{
	"sim.simulated_ticks", "sim.resumed_ticks",
	"engine.cells_submitted", "engine.cells_simulated", "engine.planned_passes", "engine.reuse_ratio",
	"engine.snap_saves", "engine.snap_delta_saves", "engine.snap_bytes", "engine.snap_hit_ratio",
	"sched.commands", "sched.hira_ops",
	"service.queue_wait_ms", "service.run_ms", "service.overhead_ms",
}

// printLayers writes the profile's per-layer CPU shares to stderr,
// largest first.
func printLayers(layers map[string]int64) {
	var total int64
	names := make([]string, 0, len(layers))
	for n, v := range layers {
		total += v
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]] > layers[names[j]] })
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "layer %-10s %6.1f%%  %8.1f ms\n", n, 100*float64(layers[n])/float64(total), float64(layers[n])/1e6)
	}
}
