package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hira/internal/engine"
	"hira/internal/service"
	"hira/internal/sim"
	"hira/internal/telemetry"
	"hira/internal/workload"
)

// bench is one workload, set up from its seed: rep runs the timed
// operation once on fresh program state, marking its sweeps and their
// progress on tl.
type bench interface {
	rep(ctx context.Context, tr *tracer, trace string, tl *timeline) (repOut, error)
	// target is the workload's own system configuration and trajectory,
	// which set-up warms and the traced run probes.
	target() (probeTarget, error)
	// singleWorker reports whether rep runs on one engine worker. Such a
	// rep is deterministic: its exact counts must repeat rep to rep.
	singleWorker() bool
}

// repOut is what one timed operation produced.
type repOut struct {
	rows      any               // result rows, digested canonically
	counts    map[string]uint64 // exact counts from public stats
	ticks     uint64            // delivered cell ticks, fixed by the inputs
	jobMS     []float64         // per job of a service rep: submit-to-done latency, NaN if it failed
	attempted int
	failed    int
	problems  []string           // seed-independent invariant violations
	layer     map[string]float64 // per-rep layer figures
}

// workloads maps each workload name to its set-up.
var workloads = map[string]func(seed uint64) (bench, error){
	"fig9-cold":       newFig9Cold,
	"horizons-resume": newHorizonsResume,
	"attack-zoo":      newAttackZoo,
	"service-mix":     newServiceMix,
}

// rng is splitmix64, the benchmark's input generator.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// bandProfiles sorts the builtin SPEC profiles by MPKI, cuts them into
// n bands and returns the profile in the middle of each band, most
// memory-intensive first.
func bandProfiles(n int) []workload.Profile {
	ps := workload.SPEC2006Profiles()
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].MPKI > ps[j].MPKI })
	out := make([]workload.Profile, n)
	for k := range out {
		out[k] = ps[(2*k+1)*len(ps)/(2*n)]
	}
	return out
}

// bandMixes builds n mixes of cores builtin profiles: slot (core c,
// mix m) holds band c*n+m of bandProfiles(n*cores), so every mix spans
// the MPKI range and together they cover it evenly. The seed shuffles
// each mix's core order; it also seeds every stream. A fixed
// composition keeps a sweep's cost from moving with the seed: drawn
// freely from the builtin set, a fig9-cold sweep's CPU time moved by
// ±13 % from seed to seed, and by ±4 % with each slot drawn from its
// band.
func bandMixes(n, cores int, r *rng) []workload.SourceMix {
	ps := bandProfiles(n * cores)
	out := make([]workload.SourceMix, n)
	for m := range out {
		out[m].ID = m
		for c := 0; c < cores; c++ {
			out[m].Sources = append(out[m].Sources, ps[c*n+m])
		}
		for i := cores - 1; i > 0; i-- {
			j := int(r.next() % uint64(i+1))
			out[m].Sources[i], out[m].Sources[j] = out[m].Sources[j], out[m].Sources[i]
		}
	}
	return out
}

func fig9Policies() []sim.RefreshPolicy {
	return []sim.RefreshPolicy{
		sim.NoRefreshPolicy(), sim.BaselinePolicy(),
		sim.HiRAPeriodicPolicy(0), sim.HiRAPeriodicPolicy(2), sim.HiRAPeriodicPolicy(4), sim.HiRAPeriodicPolicy(8),
	}
}

// engineCounts flattens engine and checkpoint-store tallies plus the
// telemetry registry's summed scheduler counters into exact counts.
func engineCounts(st sim.EngineStats, snaps engine.SnapStats, reg *telemetry.Registry) (map[string]uint64, error) {
	c := map[string]uint64{
		"engine.submitted":       st.Submitted,
		"engine.simulated":       st.Simulated,
		"engine.cache_hits":      st.CacheHits,
		"engine.store_hits":      st.StoreHits,
		"engine.deduped":         st.Deduped,
		"engine.resumed":         st.Resumed,
		"engine.resumed_ticks":   st.ResumedTicks,
		"engine.planned_passes":  st.PlannedPasses,
		"engine.planned_cells":   st.PlannedCells,
		"engine.simulated_ticks": st.SimulatedTicks,
		"snap.hits":              snaps.Hits,
		"snap.misses":            snaps.Misses,
		"snap.loads":             snaps.Loads,
		"snap.saves":             snaps.Saves,
		"snap.evictions":         snaps.Evictions,
		"snap.bytes":             uint64(snaps.Bytes),
		"snap.delta_saves":       snaps.DeltaSaves,
		"snap.delta_bytes":       uint64(snaps.DeltaBytes),
	}
	sched, err := schedCounters(reg)
	if err != nil {
		return nil, err
	}
	for k, v := range sched {
		c[k] = v
	}
	return c, nil
}

// schedCounters reads the per-cell scheduler aggregates the engine
// folds into its telemetry registry, summed over every simulated cell.
func schedCounters(reg *telemetry.Registry) (map[string]uint64, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, fmt.Errorf("scrape telemetry: %w", err)
	}
	out := map[string]uint64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || !strings.HasPrefix(name, "hira_sched_") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("telemetry line %q: %w", line, err)
		}
		out["sched."+strings.TrimSuffix(strings.TrimPrefix(name, "hira_sched_"), "_total")] = uint64(v)
	}
	return out, nil
}

// engineLayer derives the per-rep engine and scheduler layer figures
// from a rep's exact counts.
func engineLayer(c map[string]uint64) map[string]float64 {
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	return map[string]float64{
		"sim.simulated_ticks":     float64(c["engine.simulated_ticks"]),
		"sim.resumed_ticks":       float64(c["engine.resumed_ticks"]),
		"engine.cells_submitted":  float64(c["engine.submitted"]),
		"engine.cells_simulated":  float64(c["engine.simulated"]),
		"engine.planned_passes":   float64(c["engine.planned_passes"]),
		"engine.reuse_ratio":      ratio(c["engine.cache_hits"]+c["engine.store_hits"]+c["engine.deduped"], c["engine.submitted"]),
		"engine.snap_saves":       float64(c["snap.saves"]),
		"engine.snap_delta_saves": float64(c["snap.delta_saves"]),
		"engine.snap_bytes":       float64(c["snap.bytes"]),
		"engine.snap_hit_ratio":   ratio(c["snap.hits"], c["snap.hits"]+c["snap.misses"]),
		"sched.commands":          float64(c["sched.reads"] + c["sched.writes"] + c["sched.acts"] + c["sched.pres"] + c["sched.refs"]),
		"sched.hira_ops":          float64(c["sched.hira_piggybacks"] + c["sched.hira_pairs"]),
	}
}

// simRep is the shared skeleton of the three sim workloads: a fresh
// single-worker engine per rep, the workload's sweep calls, and the
// counts read back from the engine's public stats. A sweep's cells are
// its jobs: each is timed from the sweep's submission (tl.begin) to its
// resolution, as the engine's progress callback reports it.
func simRep(tr *tracer, trace string, cfg sim.EngineConfig,
	sweep func(e *sim.Engine, parent int) (any, int, []string, error)) (repOut, error) {
	root, end := tr.start(trace, "rep", 0)
	defer end()
	reg := telemetry.NewRegistry()
	cfg.Parallelism = 1
	cfg.Telemetry = reg
	_, endNew := tr.start(trace, "engine.new", root)
	e := sim.NewEngine(cfg)
	endNew()
	rows, calls, problems, err := sweep(e, root)
	if err != nil {
		return repOut{}, err
	}
	snaps, _ := e.SnapshotStats()
	counts, err := engineCounts(e.Stats(), snaps, reg)
	if err != nil {
		return repOut{}, err
	}
	return repOut{rows: rows, counts: counts, attempted: calls,
		problems: problems, layer: engineLayer(counts)}, nil
}

// ---- fig9-cold -------------------------------------------------------

type fig9Cold struct {
	opts sim.Options
	caps []int
}

func newFig9Cold(seed uint64) (bench, error) {
	r := rng(seed)
	mixes := bandMixes(2, 8, &r)
	return &fig9Cold{opts: sim.Options{Mixes: mixes, Cores: 8, Seed: r.next()}, caps: []int{8, 32, 128}}, nil
}

func (*fig9Cold) singleWorker() bool { return true }

func (w *fig9Cold) rep(ctx context.Context, tr *tracer, trace string, tl *timeline) (repOut, error) {
	out, err := simRep(tr, trace, sim.EngineConfig{},
		func(e *sim.Engine, parent int) (any, int, []string, error) {
			opts := w.opts
			opts.Progress = tl.progress
			tl.begin()
			var rows []sim.Fig9Row
			var problems []string
			for _, c := range w.caps {
				_, end := tr.start(trace, fmt.Sprintf("sweep.fig9.%dGb", c), parent)
				r, err := e.Fig9(ctx, opts, []int{c})
				end()
				if err != nil {
					return nil, 0, nil, fmt.Errorf("fig9 at %d Gb: %w", c, err)
				}
				rows = append(rows, r...)
				if len(r) != 1 || len(r[0].WS) != 6 || r[0].NormBaseline["Baseline"] != 1 {
					problems = append(problems, fmt.Sprintf("fig9 at %d Gb: malformed row %+v", c, r))
				}
			}
			return rows, len(w.caps), problems, nil
		})
	out.ticks = uint64(len(w.caps)*len(fig9Policies())*len(w.opts.Mixes)) * uint64(defaultWarmup+defaultMeasure)
	return out, err
}

func (w *fig9Cold) target() (probeTarget, error) {
	cfg := sim.DefaultConfig()
	cfg.ChipCapacityGbit = 32
	cfg.Seed = w.opts.Seed
	return probeTarget{cfg, w.opts.Mixes[0], defaultWarmup, defaultMeasure}, nil
}

// Table 3 horizons: sim.Options' defaults.
const (
	defaultWarmup  = 30000
	defaultMeasure = 120000
)

// ---- horizons-resume -------------------------------------------------

// snapInterval is hira-server's default checkpoint interval.
const snapInterval = 10000

type horizonsResume struct {
	opts      sim.Options
	base      sim.Config
	cold, ext []int
}

func newHorizonsResume(seed uint64) (bench, error) {
	r := rng(seed)
	mixes := bandMixes(1, 8, &r)
	base := sim.DefaultConfig()
	base.ChipCapacityGbit = 32
	return &horizonsResume{
		opts: sim.Options{Mixes: mixes, Cores: 8, Seed: r.next()},
		base: base,
		cold: []int{80000, 160000, 240000},
		ext:  []int{320000, 400000, 480000},
	}, nil
}

func (*horizonsResume) singleWorker() bool { return true }

func (w *horizonsResume) rep(ctx context.Context, tr *tracer, trace string, tl *timeline) (repOut, error) {
	out, err := simRep(tr, trace, sim.EngineConfig{SnapInterval: snapInterval},
		func(e *sim.Engine, parent int) (any, int, []string, error) {
			opts := w.opts
			opts.Progress = tl.progress
			var rows [][][]sim.PolicyScore
			var problems []string
			for i, hs := range [][]int{w.cold, w.ext} {
				name := [...]string{"sweep.cold", "sweep.extend"}[i]
				var st sim.EngineStats
				opts.Stats = &st
				tl.begin()
				_, end := tr.start(trace, name, parent)
				r, err := e.RunPoliciesHorizons(ctx, w.base, fig9Policies(), opts, hs)
				end()
				if err != nil {
					return nil, 0, nil, fmt.Errorf("%s: %w", name, err)
				}
				rows = append(rows, r)
				if i == 1 && (st.Resumed == 0 || st.ResumedTicks == 0) {
					problems = append(problems, "extension batch resumed no checkpoint")
				}
			}
			return rows, 2, problems, nil
		})
	var ticks uint64
	for _, h := range append(append([]int(nil), w.cold...), w.ext...) {
		ticks += uint64(len(fig9Policies())*len(w.opts.Mixes)) * uint64(defaultWarmup+h)
	}
	out.ticks = ticks
	return out, err
}

func (w *horizonsResume) target() (probeTarget, error) {
	cfg := w.base
	cfg.Seed = w.opts.Seed
	return probeTarget{cfg, w.opts.Mixes[0], defaultWarmup, w.cold[0]}, nil
}

// ---- attack-zoo ------------------------------------------------------

type attackZoo struct {
	opts sim.Options
}

func newAttackZoo(seed uint64) (bench, error) {
	const cores = 4
	r := rng(seed)
	return &attackZoo{opts: sim.Options{Cores: cores, Seed: bandBenignSeed(cores, &r)}}, nil
}

// bandBenignSeed draws sim seeds from r until AttackSweep's benign cores
// (1..cores-1 of the seed's first builtin mix; core 0 runs the
// attacker) hold exactly bandProfiles(cores-1), in whatever order the
// seed puts them, for the reason bandMixes gives. The seed still picks
// that order, the streams and PARA's draws.
func bandBenignSeed(cores int, r *rng) uint64 {
	want := map[string]int{}
	for _, p := range bandProfiles(cores - 1) {
		want[p.Name]++
	}
	for {
		seed := r.next()
		got := map[string]int{}
		for _, p := range workload.Mixes(1, cores, seed)[0].Profiles[1:] {
			got[p.Name]++
		}
		if reflect.DeepEqual(got, want) {
			return seed
		}
	}
}

func (*attackZoo) singleWorker() bool { return true }

// mitigations are the zoo's defended policies at each NRH.
var mitigations = []string{"PARA", "Graphene", "RFM"}

func (w *attackZoo) rep(ctx context.Context, tr *tracer, trace string, tl *timeline) (repOut, error) {
	kinds := sim.AttackKinds()
	out, err := simRep(tr, trace, sim.EngineConfig{},
		func(e *sim.Engine, parent int) (any, int, []string, error) {
			opts := w.opts
			opts.Progress = tl.progress
			tl.begin()
			var rows []sim.AttackRow
			var problems []string
			for _, k := range kinds {
				_, end := tr.start(trace, "sweep.attack."+k, parent)
				r, err := e.AttackSweep(ctx, opts, []string{k}, nil)
				end()
				if err != nil {
					return nil, 0, nil, fmt.Errorf("attack %s: %w", k, err)
				}
				rows = append(rows, r...)
			}
			for _, row := range rows {
				if row.Attack == "double" {
					problems = append(problems, efficacyProblems(row)...)
				}
			}
			return rows, len(kinds), problems, nil
		})
	out.ticks = uint64(len(kinds)*len(sim.AttackNRHValues())*(1+len(mitigations))) * uint64(defaultWarmup+defaultMeasure)
	return out, err
}

// efficacyProblems checks one double-sided attack row: with no defense
// a victim crosses NRH, and every mitigation holds all victims below it.
func efficacyProblems(row sim.AttackRow) []string {
	var out []string
	nrh := uint32(row.NRH)
	if f := row.Forensics["Baseline"]; f == nil || f.MaxVictimExposure <= nrh {
		out = append(out, fmt.Sprintf("NRH %d: unmitigated double-sided attack did not cross NRH", row.NRH))
	}
	for _, m := range mitigations {
		f := row.Forensics[m]
		if f == nil || f.MaxVictimExposure >= nrh || f.Tally.VictimCrossings[1] != 0 {
			out = append(out, fmt.Sprintf("NRH %d: %s let a victim reach NRH", row.NRH, m))
		}
	}
	return out
}

func (w *attackZoo) target() (probeTarget, error) {
	cfg := sim.DefaultConfig()
	cfg.Cores = w.opts.Cores
	cfg.Seed = w.opts.Seed
	org := sim.OrgFor(cfg)
	atk, err := workload.NewAttack(workload.AttackSpec{Kind: workload.AttackDouble, Bank: 2,
		VictimRow: org.RowsPerBank() / 2}, org)
	if err != nil {
		return probeTarget{}, err
	}
	benign := workload.Mixes(1, cfg.Cores, w.opts.Seed)[0].Sources()
	mix := workload.SourceMix{Sources: append([]workload.Source{atk}, benign.Sources[1:]...)}
	return probeTarget{cfg, mix, defaultWarmup, defaultMeasure}, nil
}

// ---- service-mix -----------------------------------------------------

// Service job sizing: one small single-policy cell per job.
const (
	svcJobs    = 120
	svcRepeats = 30 // a quarter of the jobs repeat an earlier spec
	svcCores   = 4
	svcWarmup  = 2000
	svcMeasure = 8000
	svcClients = 2 // closed loop, one per host core
)

type serviceMix struct {
	specs  []service.JobSpec
	origin []int // index of the job a repeat repeats, or -1
}

func newServiceMix(seed uint64) (bench, error) {
	r := rng(seed)
	caps := []int{8, 32, 128}
	pols := []service.PolicySpec{
		{Type: "baseline"}, {Type: "hira", Slack: 2}, {Type: "para", NRH: 256}, {Type: "para+hira", NRH: 256, Slack: 4},
	}
	distinct := svcJobs - svcRepeats
	w := &serviceMix{}
	for i := 0; i < distinct; i++ {
		var names []string
		for _, src := range bandMixes(1, svcCores, &r)[0].Sources {
			names = append(names, src.Label())
		}
		w.specs = append(w.specs, service.JobSpec{
			Kind:      service.KindPolicies,
			Sim:       &service.SimSpec{Cores: svcCores, Warmup: svcWarmup, Measure: svcMeasure, Seed: 1 + r.next()%(1<<40)},
			Config:    &service.ConfigSpec{CapacityGbit: caps[r.next()%uint64(len(caps))]},
			Policies:  []service.PolicySpec{pols[r.next()%uint64(len(pols))]},
			Workloads: &service.WorkloadsSpec{Mixes: [][]string{names}},
		})
		w.origin = append(w.origin, -1)
	}
	// Each repeat goes at least four places after the job it repeats, so
	// with two clients it is mostly a cache hit, not a singleflight join.
	for i := 0; i < svcRepeats; i++ {
		src := int(r.next() % uint64(distinct-4))
		at := src + 4 + int(r.next()%uint64(len(w.specs)-src-3))
		w.specs = append(w.specs[:at], append([]service.JobSpec{w.specs[src]}, w.specs[at:]...)...)
		w.origin = append(w.origin[:at], append([]int{src}, w.origin[at:]...)...)
		for j := range w.origin {
			if j != at && w.origin[j] >= at {
				w.origin[j]++
			}
		}
	}
	return w, nil
}

func (*serviceMix) singleWorker() bool { return false }

// specKey names a job spec in the digest.
func specKey(s service.JobSpec) string {
	b, _ := json.Marshal(s) // a JobSpec always encodes
	return string(b)
}

func (w *serviceMix) rep(ctx context.Context, tr *tracer, trace string, tl *timeline) (repOut, error) {
	root, end := tr.start(trace, "rep", 0)
	defer end()
	reg := telemetry.NewRegistry()
	_, endNew := tr.start(trace, "server.new", root)
	srv := service.New(service.Config{
		Engine:    sim.EngineConfig{Parallelism: 2, SnapInterval: snapInterval},
		Workers:   2,
		Telemetry: reg,
	})
	ts := httptest.NewServer(srv.Handler())
	endNew()
	defer ts.Close()
	defer srv.Close()
	client := service.NewClient(ts.URL)

	n := len(w.specs)
	payloads := make([][]byte, n)
	errs := make([]error, n)
	lat := make([]float64, n)
	queue, run, overhead := make([]float64, n), make([]float64, n), make([]float64, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				jt := fmt.Sprintf("%s/job%d", trace, i)
				t0 := time.Now()
				_, endSub := tr.start(jt, "client.submit", root)
				j, err := client.Submit(ctx, w.specs[i])
				endSub()
				if err == nil {
					_, endWait := tr.start(jt, "client.wait", root)
					j, err = client.Wait(ctx, j.ID, nil)
					endWait()
				}
				d := time.Since(t0)
				if err == nil && j.State != service.StateDone {
					err = fmt.Errorf("job %d ended %s: %s", i, j.State, j.Error)
				}
				if err != nil {
					errs[i] = err
					continue
				}
				var res struct {
					Policies json.RawMessage `json:"policies"`
				}
				if err := json.Unmarshal(j.Result, &res); err != nil {
					errs[i] = fmt.Errorf("job %d result: %w", i, err)
					continue
				}
				payloads[i] = res.Policies
				lat[i] = float64(d) / 1e6
				if j.Started != nil && j.Finished != nil {
					queue[i] = float64(j.Started.Sub(j.Created)) / 1e6
					run[i] = float64(j.Finished.Sub(*j.Started)) / 1e6
					overhead[i] = lat[i] - float64(j.Finished.Sub(j.Created))/1e6
				}
			}
		}()
	}
	wg.Wait()

	out := repOut{attempted: n}
	rows := map[string]json.RawMessage{}
	out.jobMS = lat
	var okQueue, okRun, okOver []float64
	for i := range w.specs {
		if errs[i] != nil {
			out.failed++
			out.problems = append(out.problems, errs[i].Error())
			lat[i] = math.NaN()
			continue
		}
		if o := w.origin[i]; o >= 0 && payloads[o] != nil && !bytes.Equal(payloads[i], payloads[o]) {
			out.failed++
			out.problems = append(out.problems, fmt.Sprintf("job %d repeats job %d but its payload differs", i, o))
			lat[i] = math.NaN()
			continue
		}
		rows[specKey(w.specs[i])] = payloads[i]
		okQueue, okRun, okOver = append(okQueue, queue[i]), append(okRun, run[i]), append(okOver, overhead[i])
		out.ticks += uint64(svcWarmup + svcMeasure)
	}
	out.rows = rows
	snaps, _ := srv.Engine().SnapshotStats()
	counts, err := engineCounts(srv.Engine().Stats(), snaps, reg)
	if err != nil {
		return repOut{}, err
	}
	out.counts = counts
	out.layer = engineLayer(counts)
	out.layer["service.queue_wait_ms"] = median(okQueue)
	out.layer["service.run_ms"] = median(okRun)
	out.layer["service.overhead_ms"] = median(okOver)
	return out, nil
}

func (w *serviceMix) target() (probeTarget, error) {
	s := w.specs[0]
	cfg := sim.DefaultConfig()
	cfg.Cores = svcCores
	cfg.ChipCapacityGbit = s.Config.CapacityGbit
	cfg.Seed = s.Sim.Seed
	var mix workload.SourceMix
	for _, name := range s.Workloads.Mixes[0] {
		p, err := workload.ProfileByName(name)
		if err != nil {
			return probeTarget{}, err
		}
		mix.Sources = append(mix.Sources, p)
	}
	return probeTarget{cfg, mix, svcWarmup, svcMeasure}, nil
}
