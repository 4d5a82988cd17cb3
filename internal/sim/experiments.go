package sim

import (
	"context"
	"fmt"
	"strings"

	"hira/internal/cache"
	"hira/internal/cpu"
	"hira/internal/dram"
	"hira/internal/engine"
	"hira/internal/fault"
	"hira/internal/metrics"
	"hira/internal/telemetry"
	"hira/internal/workload"
)

// aloneMemory is the fixed-latency ideal memory used to compute per-trace
// alone-IPC references for weighted speedup. Using one config-independent
// reference keeps weighted-speedup ratios between configurations
// meaningful while avoiding a quadratic number of alone simulations.
type aloneMemory struct {
	latencyTicks int
	inflight     []aloneReq
	llc          *cache.Cache
	c            *cpu.Core
}

type aloneReq struct {
	token uint64
	left  int
}

func (m *aloneMemory) Issue(req cpu.MemRequest) bool {
	if m.llc.Access(req.Addr, req.Write).Hit || req.Write {
		if !req.Write {
			m.c.Complete(req.Token)
		}
		return true
	}
	m.inflight = append(m.inflight, aloneReq{token: req.Token, left: m.latencyTicks})
	return true
}

func (m *aloneMemory) step() {
	kept := m.inflight[:0]
	for _, r := range m.inflight {
		r.left--
		if r.left <= 0 {
			m.c.Complete(r.token)
		} else {
			kept = append(kept, r)
		}
	}
	m.inflight = kept
}

// AloneIPC computes a benchmark's IPC on an unloaded fixed-latency memory
// (~60ns, an idle DRAM read round trip). Results are deterministic per
// (profile, seed).
func AloneIPC(p workload.Profile, seed uint64, ticks int) float64 {
	ipc, _ := AloneIPCContext(context.Background(), p, seed, ticks)
	return ipc
}

// AloneIPCContext is AloneIPC honoring cancellation: it polls ctx every
// few thousand ticks and returns ctx.Err() once cancelled.
func AloneIPCContext(ctx context.Context, p workload.Profile, seed uint64, ticks int) (float64, error) {
	return AloneIPCSourceContext(ctx, p, seed, ticks)
}

// AloneIPCSourceContext computes the alone-IPC reference for any
// workload source (profile or trace) on the unloaded fixed-latency
// memory.
func AloneIPCSourceContext(ctx context.Context, src workload.Source, seed uint64, ticks int) (float64, error) {
	a := newAloneRun(src, seed)
	if err := a.RunTo(ctx, ticks); err != nil {
		return 0, err
	}
	return a.ipc(), nil
}

// aloneRun is the alone-IPC reference machine: one core on an unloaded
// fixed-latency memory. Like System it advances in ticks and supports
// bit-identical Snapshot/restore, so alone reference cells are just as
// prefix-cached as full-system cells.
type aloneRun struct {
	mem    *aloneMemory
	c      *cpu.Core
	budget float64
	tick   int
	key    string // alone trajectory key, embedded in snapshots
}

func newAloneRun(src workload.Source, seed uint64) *aloneRun {
	mem := &aloneMemory{latencyTicks: 72, llc: cache.MustNew(8<<20, 8, 64)}
	c := cpu.New(0, src.Stream(seed), mem)
	mem.c = c
	return &aloneRun{mem: mem, c: c, key: aloneTrajectoryKey(src, seed)}
}

// Ticks reports the absolute tick the run has reached.
func (a *aloneRun) Ticks() int { return a.tick }

// RunTo advances to the absolute tick target, polling ctx.
func (a *aloneRun) RunTo(ctx context.Context, target int) error {
	for ; a.tick < target; a.tick++ {
		if a.tick&(ctxCheckTicks-1) == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		a.budget += 4 * cpuCyclesPerTick
		if whole := int(a.budget); whole > 0 {
			a.c.Tick(float64(whole))
			a.budget -= float64(whole)
		}
		a.mem.step()
	}
	return nil
}

// ipc reports the cumulative IPC at the current tick (the alone cell's
// result; cumulative, so it is independent of how the run was split).
func (a *aloneRun) ipc() float64 {
	return a.c.IPC(float64(a.tick) * cpuCyclesPerTick)
}

// aloneSeed derives the deterministic per-core workload seed used both by
// NewSystem's shared-run generators and the alone-IPC reference cells, so
// the two drive identical workload streams.
func aloneSeed(baseSeed uint64, core int) uint64 {
	return baseSeed*1000003 + uint64(core)*7919 + 11
}

// aloneRefSeed is aloneSeed canonicalized for seed-invariant sources:
// a trace replays identically on every core, so keying its alone cell
// by the per-core seed would simulate and store one identical cell per
// core it appears on.
func aloneRefSeed(src workload.Source, baseSeed uint64, core int) uint64 {
	if si, ok := src.(workload.SeedInvariant); ok && si.SeedInvariant() {
		return 0
	}
	return aloneSeed(baseSeed, core)
}

// Options sizes an experiment sweep. The paper runs 125 mixes of 200M
// instructions; defaults here are laptop-scale and flag-adjustable in
// cmd/hira-sim.
type Options struct {
	Workloads int // number of multiprogrammed mixes (default 4)
	Cores     int // cores per mix (default 8)
	Warmup    int // warmup memory ticks (default 30000)
	Measure   int // measured memory ticks (default 120000)
	Seed      uint64

	// Mixes, when non-nil, is the explicit workload set the sweep runs —
	// custom profiles, recorded traces, or any workload.Source per core —
	// instead of Workloads builtin SPEC mixes drawn from Seed. Every mix
	// must have exactly Cores sources; Workloads is ignored (it reports
	// as len(Mixes) after WithDefaults).
	Mixes []workload.SourceMix

	// Parallelism bounds the experiment engine's worker pool; 0 means
	// one worker per CPU core. Results are bit-identical at any setting
	// because every cell seeds from its own content. Ignored when the
	// sweep runs on a shared Engine, whose construction fixed the bound.
	Parallelism int
	// ResultDir, when non-empty, persists per-cell JSON results keyed by
	// cell hash, so re-running a sweep after a crash or with one new
	// policy only simulates the delta. Ignored on a shared Engine.
	ResultDir string
	// SnapInterval, when positive, checkpoints every simulation cell's
	// machine state each SnapInterval ticks (plus at the warmup boundary
	// and the final tick), and resumes cells from the longest usable
	// checkpoint — so rerunning a sweep with longer horizons simulates
	// only the delta. Checkpoints live alongside ResultDir's cells (or in
	// memory without one). Results are bit-identical at any setting.
	// Ignored on a shared Engine.
	SnapInterval int
	// SnapMaxBytes caps the checkpoint store; <= 0 means 2 GiB on disk
	// (256 MiB in memory). The least-recently-used checkpoints are
	// evicted first. Ignored on a shared Engine.
	SnapMaxBytes int64
	// Progress, when set, is called as a batch's cells resolve.
	Progress func(done, total int)
	// ProgressStats, when set, supersedes Progress: it additionally
	// receives a snapshot of the batch's resolution tally so far, so
	// callers (e.g. the service's SSE progress events) can stream
	// cache-hit and resumed-tick counts mid-sweep.
	ProgressStats func(done, total int, batch EngineStats)
	// Stats, when set, accumulates the engine's resolution tallies
	// (simulated vs cache/store hits) across the sweep.
	Stats *EngineStats

	// Forensics runs every simulation cell with the RowHammer forensics
	// ledger enabled and attaches per-policy forensics summaries to the
	// results. Purely observational (figures are bit-identical), but
	// forensics cells are keyed separately and never resume from
	// checkpoints, so warm plain-cell stores do not serve them.
	Forensics bool
	// ForensicsRecorder additionally arms the DRAM command flight
	// recorder (implies nothing without Forensics).
	ForensicsRecorder bool
}

// WithDefaults returns o with zero fields replaced by the laptop-scale
// defaults, so callers (e.g. the service's cost estimator) can see the
// effective sweep size before running it.
func (o Options) WithDefaults() Options { return o.withDefaults() }

func (o Options) withDefaults() Options {
	if o.Mixes != nil {
		o.Workloads = len(o.Mixes)
	}
	if o.Workloads == 0 {
		o.Workloads = 4
	}
	if o.Cores == 0 {
		o.Cores = 8
	}
	if o.Warmup == 0 {
		o.Warmup = 30000
	}
	if o.Measure == 0 {
		o.Measure = 120000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Engine is a shared experiment engine: every sweep run through one
// Engine shares its in-memory cell cache, its on-disk result store, its
// compute bound, and its in-flight computations, so concurrent callers
// (e.g. service clients) asking overlapping questions trigger each
// simulation exactly once. Safe for concurrent use.
type Engine struct {
	eng          *experimentEngine
	snaps        *engine.SnapStore
	snapInterval int
	sim          *simMetrics
}

// EngineConfig sizes a shared Engine.
type EngineConfig struct {
	// Parallelism bounds how many cells compute at once across all
	// concurrent sweeps; 0 means one per CPU core.
	Parallelism int
	// ResultDir, when non-empty, is the content-addressed result store.
	ResultDir string
	// SnapInterval, when positive, enables resumable simulation cells:
	// each cell's machine state is checkpointed every SnapInterval ticks
	// (plus at the warmup boundary and the final tick) into a bounded
	// store sharing ResultDir's sharded layout (in-memory without a
	// ResultDir), and cells resume from the longest usable checkpoint at
	// or below their horizon. Results are bit-identical either way.
	SnapInterval int
	// SnapMaxBytes caps the checkpoint store's payload bytes; <= 0 means
	// 2 GiB on disk (256 MiB in memory). Least-recently-used checkpoints
	// are evicted first.
	SnapMaxBytes int64
	// Telemetry, when non-nil, is the metrics registry the engine
	// instruments itself on: cell resolution counters, per-cell wall-time
	// histograms, snapshot-store economics, and coarse scheduler
	// aggregates. Nil disables instrumentation at one branch per site.
	Telemetry *telemetry.Registry
	// FS, when non-nil, routes result- and checkpoint-store file I/O
	// through a fault-injection seam (see internal/fault) — armed by
	// chaos tests and hira-server's -faults flag, nil everywhere else.
	FS fault.FS
}

// NewEngine builds a shared experiment engine.
func NewEngine(cfg EngineConfig) *Engine {
	opts := engine.Options{
		Parallelism: cfg.Parallelism,
		ResultDir:   cfg.ResultDir,
		FS:          cfg.FS,
	}
	if cfg.Telemetry != nil {
		opts.Metrics = engine.NewMetrics(cfg.Telemetry)
	}
	e := &Engine{
		eng:          engine.New[CellResult](opts),
		snapInterval: cfg.SnapInterval,
		sim:          newSimMetrics(cfg.Telemetry),
	}
	if cfg.SnapInterval > 0 {
		e.snaps = engine.NewSnapStoreFS(cfg.ResultDir, cfg.SnapMaxBytes, cfg.FS)
	}
	if cfg.Telemetry != nil {
		engine.RegisterStatsFuncs(cfg.Telemetry, e.eng.Stats)
		if e.snaps != nil {
			engine.RegisterSnapStoreFuncs(cfg.Telemetry, e.snaps.Stats)
		}
	}
	return e
}

// Degraded reports whether either backing store has fallen off its
// configured durable path: the result store into cache-only mode, or the
// checkpoint store into in-memory mode. The returned reason names the
// store(s); ok is false when both are healthy.
func (e *Engine) Degraded() (string, bool) {
	var reasons []string
	if why, bad := e.eng.StoreDegraded(); bad {
		reasons = append(reasons, "result store: "+why)
	}
	if e.snaps != nil {
		if why, bad := e.snaps.Degraded(); bad {
			reasons = append(reasons, "checkpoint store: "+why)
		}
	}
	return strings.Join(reasons, "; "), len(reasons) > 0
}

// SnapshotStats reports the checkpoint store's tallies; ok is false when
// checkpointing is disabled.
func (e *Engine) SnapshotStats() (engine.SnapStats, bool) {
	if e.snaps == nil {
		return engine.SnapStats{}, false
	}
	return e.snaps.Stats(), true
}

// Stats returns the engine's lifetime resolution tallies across every
// sweep run on it.
func (e *Engine) Stats() EngineStats { return e.eng.Stats() }

// StoredCells reports how many cell results the on-disk store indexes.
func (e *Engine) StoredCells() int { return e.eng.StoredCells() }

// Parallelism reports the engine-wide compute bound.
func (e *Engine) Parallelism() int { return e.eng.Parallelism() }

// newSweepEngine builds the single-sweep engine the one-shot entry
// points use when no shared Engine is supplied.
func newSweepEngine(opts Options) *Engine {
	return NewEngine(EngineConfig{
		Parallelism:  opts.Parallelism,
		ResultDir:    opts.ResultDir,
		SnapInterval: opts.SnapInterval,
		SnapMaxBytes: opts.SnapMaxBytes,
	})
}

// PolicyScore is the average weighted speedup of one policy under one
// system shape.
type PolicyScore struct {
	Policy RefreshPolicy `json:"policy"`
	// WS is the mean weighted speedup across mixes.
	WS float64 `json:"ws"`
	// Sched aggregates controller stats across mixes.
	Sched SchedAggregate `json:"sched"`
	// Forensics aggregates the RowHammer forensics summaries across
	// mixes (tallies summed, maxes maxed); nil unless the sweep ran
	// with Options.Forensics.
	Forensics *ForensicsSummary `json:"forensics,omitempty"`
}

// SchedAggregate sums selected controller statistics across runs.
type SchedAggregate struct {
	HiRAPiggybacks      uint64 `json:"hira_piggybacks"`
	HiRAPairs           uint64 `json:"hira_pairs"`
	StandaloneRefreshes uint64 `json:"standalone_refreshes"`
	REFs                uint64 `json:"refs"`
	SeqBlocked          uint64 `json:"seq_blocked"`
	CanACTBlocked       uint64 `json:"can_act_blocked"`
}

// RunPolicies evaluates each policy on the same mixes and returns average
// weighted speedups. Cells run on a fresh single-sweep engine; use
// Engine.RunPolicies to share cells (and a result store) across calls.
func RunPolicies(ctx context.Context, base Config, policies []RefreshPolicy, opts Options) ([]PolicyScore, error) {
	return newSweepEngine(opts).RunPolicies(ctx, base, policies, opts)
}

// RunPolicies evaluates each policy on the same mixes on the shared
// engine.
func (e *Engine) RunPolicies(ctx context.Context, base Config, policies []RefreshPolicy, opts Options) ([]PolicyScore, error) {
	return runPolicies(ctx, e, base, policies, opts.withDefaults())
}

// sourceMixes returns the workload set a sweep runs: opts.Mixes when the
// caller supplied explicit sources, else Workloads builtin SPEC mixes
// drawn deterministically from Seed. opts must already have defaults
// applied.
func (o Options) sourceMixes() ([]workload.SourceMix, error) {
	if o.Mixes == nil {
		if o.Workloads < 1 || o.Cores < 1 {
			return nil, fmt.Errorf("sim: %d workloads x %d cores is not a sweep", o.Workloads, o.Cores)
		}
		ms := workload.Mixes(o.Workloads, o.Cores, o.Seed)
		out := make([]workload.SourceMix, len(ms))
		for i := range ms {
			out[i] = ms[i].Sources()
		}
		return out, nil
	}
	if len(o.Mixes) == 0 {
		return nil, fmt.Errorf("sim: options.Mixes is empty; nil means builtin mixes")
	}
	for _, m := range o.Mixes {
		if len(m.Sources) != o.Cores {
			return nil, fmt.Errorf("sim: %s has %d workloads for %d cores", m, len(m.Sources), o.Cores)
		}
	}
	return o.Mixes, nil
}

// runPolicies submits one batch to the lab's engine: the alone-IPC
// reference cells the mixes need, plus one simulation cell per
// (policy, mix), then assembles weighted speedups from the resolved
// results. opts must already have defaults applied.
func runPolicies(ctx context.Context, lab *Engine, base Config, policies []RefreshPolicy, opts Options) ([]PolicyScore, error) {
	rows, err := runPoliciesMeasures(ctx, lab, base, policies, opts, []int{opts.Measure})
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}

// RunPoliciesHorizons evaluates each policy on the same mixes at every
// measured horizon in measures, on a fresh single-sweep engine. See
// Engine.RunPoliciesHorizons.
func RunPoliciesHorizons(ctx context.Context, base Config, policies []RefreshPolicy, opts Options, measures []int) ([][]PolicyScore, error) {
	return newSweepEngine(opts).RunPoliciesHorizons(ctx, base, policies, opts, measures)
}

// RunPoliciesHorizons evaluates each policy on the same mixes at every
// measured horizon in measures (opts.Measure is ignored) and returns
// one score row per horizon, index-aligned with measures. All horizons
// submit as one batch, so the sweep planner coalesces each trajectory's
// horizons — sim and alone-reference cells alike — into a single
// ascending pass instead of one restore-and-extend round trip per
// horizon. Rows are bit-identical to running each horizon separately.
func (e *Engine) RunPoliciesHorizons(ctx context.Context, base Config, policies []RefreshPolicy, opts Options, measures []int) ([][]PolicyScore, error) {
	if len(measures) == 0 {
		return nil, fmt.Errorf("sim: no measure horizons given")
	}
	return runPoliciesMeasures(ctx, e, base, policies, opts.withDefaults(), measures)
}

// runPoliciesMeasures submits one batch covering every (policy, mix,
// measure) simulation cell plus the alone-IPC reference cells each
// (mix, measure) needs, then assembles one score row per measure.
// opts must already have defaults applied.
func runPoliciesMeasures(ctx context.Context, lab *Engine, base Config, policies []RefreshPolicy, opts Options, measures []int) ([][]PolicyScore, error) {
	mixes, err := opts.sourceMixes()
	if err != nil {
		return nil, err
	}
	for _, m := range measures {
		if m <= 0 {
			return nil, fmt.Errorf("sim: measure horizon %d is not positive", m)
		}
	}

	var cells []engine.Cell[CellResult]
	aloneIdx := map[string]int{} // alone cell key -> index into cells
	// aloneRefs[measure][mix][core] -> index into cells
	aloneRefs := make([][][]int, len(measures))
	for mIdx, measure := range measures {
		aloneRefs[mIdx] = make([][]int, len(mixes))
		for mi, mix := range mixes {
			aloneRefs[mIdx][mi] = make([]int, len(mix.Sources))
			for c, src := range mix.Sources {
				seed := aloneRefSeed(src, opts.Seed, c)
				key := aloneCellKey(src, seed, measure)
				idx, ok := aloneIdx[key]
				if !ok {
					idx = len(cells)
					aloneIdx[key] = idx
					cells = append(cells, aloneCell(lab, src, seed, measure))
				}
				aloneRefs[mIdx][mi][c] = idx
			}
		}
	}
	simStart := make([]int, len(measures)) // measure -> its (policy x mix) block
	for mIdx, measure := range measures {
		simStart[mIdx] = len(cells)
		for _, pol := range policies {
			cfg := base
			cfg.Cores = opts.Cores
			cfg.Policy = pol
			cfg.Seed = opts.Seed
			cfg.Forensics = ForensicsOptions{Enabled: opts.Forensics, Recorder: opts.Forensics && opts.ForensicsRecorder}
			for _, mix := range mixes {
				cells = append(cells, simCell(lab, cfg, mix, opts.Warmup, measure))
			}
		}
	}

	results, batch, err := lab.eng.RunWith(ctx, cells, engine.RunOptions{
		OnProgress:      opts.Progress,
		OnProgressStats: opts.ProgressStats,
	})
	if opts.Stats != nil {
		opts.Stats.Add(batch)
	}
	if err != nil {
		return nil, err
	}

	out := make([][]PolicyScore, len(measures))
	for mIdx := range measures {
		scores := make([]PolicyScore, len(policies))
		next := simStart[mIdx]
		for pi, pol := range policies {
			var ws []float64
			var agg SchedAggregate
			var fx *ForensicsSummary
			for mi := range mixes {
				res := results[next]
				next++
				ipcAlone := make([]float64, opts.Cores)
				for c, ref := range aloneRefs[mIdx][mi] {
					ipcAlone[c] = results[ref].Alone
				}
				ws = append(ws, metrics.WeightedSpeedup(res.IPC, ipcAlone))
				agg.HiRAPiggybacks += res.Sched.HiRAPiggybacks
				agg.HiRAPairs += res.Sched.HiRAPairs
				agg.StandaloneRefreshes += res.Sched.StandaloneRefreshes
				agg.REFs += res.Sched.REFs
				agg.SeqBlocked += res.Sched.SeqBlocked
				agg.CanACTBlocked += res.Sched.CanACTBlocked
				fx = MergeForensics(fx, res.Forensics)
			}
			scores[pi] = PolicyScore{Policy: pol, WS: metrics.Mean(ws), Sched: agg, Forensics: fx}
		}
		out[mIdx] = scores
	}
	return out, nil
}

// Fig9Row is one capacity point of Fig. 9.
type Fig9Row struct {
	CapacityGbit int `json:"capacity_gbit"`
	// WS maps policy name to average weighted speedup; NormNoRefresh and
	// NormBaseline are Fig. 9a/9b normalizations.
	WS            map[string]float64 `json:"ws"`
	NormNoRefresh map[string]float64 `json:"norm_no_refresh"`
	NormBaseline  map[string]float64 `json:"norm_baseline"`
	// Forensics maps policy name to its aggregated forensics summary;
	// nil unless the sweep ran with Options.Forensics.
	Forensics map[string]*ForensicsSummary `json:"forensics,omitempty"`
}

// forensicsByPolicy collects scores' forensics summaries into a
// per-policy-name map. It returns nil when no score carries one, so
// figure rows from non-forensics sweeps stay byte-identical to before
// forensics existed.
func forensicsByPolicy(scores []PolicyScore) map[string]*ForensicsSummary {
	var m map[string]*ForensicsSummary
	for _, s := range scores {
		if s.Forensics == nil {
			continue
		}
		if m == nil {
			m = map[string]*ForensicsSummary{}
		}
		m[s.Policy.Name] = s.Forensics
	}
	return m
}

// Fig9Capacities is the x-axis of Fig. 9.
func Fig9Capacities() []int { return []int{2, 4, 8, 16, 32, 64, 128} }

// Fig9 sweeps chip capacity for periodic refresh (§8): No Refresh,
// Baseline REF, and HiRA-{0,2,4,8}, on a fresh single-sweep engine.
func Fig9(ctx context.Context, opts Options, capacities []int) ([]Fig9Row, error) {
	return newSweepEngine(opts).Fig9(ctx, opts, capacities)
}

// Fig9 runs the capacity sweep on the shared engine.
func (e *Engine) Fig9(ctx context.Context, opts Options, capacities []int) ([]Fig9Row, error) {
	if capacities == nil {
		capacities = Fig9Capacities()
	}
	policies := []RefreshPolicy{
		NoRefreshPolicy(), BaselinePolicy(),
		HiRAPeriodicPolicy(0), HiRAPeriodicPolicy(2), HiRAPeriodicPolicy(4), HiRAPeriodicPolicy(8),
	}
	opts = opts.withDefaults()
	var rows []Fig9Row
	for _, cap := range capacities {
		base := DefaultConfig()
		base.ChipCapacityGbit = cap
		scores, err := runPolicies(ctx, e, base, policies, opts)
		if err != nil {
			return nil, err
		}
		row := Fig9Row{CapacityGbit: cap,
			WS: map[string]float64{}, NormNoRefresh: map[string]float64{}, NormBaseline: map[string]float64{},
			Forensics: forensicsByPolicy(scores)}
		for _, s := range scores {
			row.WS[s.Policy.Name] = s.WS
		}
		for name, ws := range row.WS {
			if nr := row.WS["NoRefresh"]; nr > 0 {
				row.NormNoRefresh[name] = ws / nr
			}
			if b := row.WS["Baseline"]; b > 0 {
				row.NormBaseline[name] = ws / b
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig12Row is one RowHammer-threshold point of Fig. 12.
type Fig12Row struct {
	NRH          int                `json:"nrh"`
	WS           map[string]float64 `json:"ws"`
	NormBaseline map[string]float64 `json:"norm_baseline"` // Fig. 12a: vs no-defense baseline
	NormPARA     map[string]float64 `json:"norm_para"`     // Fig. 12b: vs PARA without HiRA
	// Forensics maps policy name to its aggregated forensics summary;
	// nil unless the sweep ran with Options.Forensics.
	Forensics map[string]*ForensicsSummary `json:"forensics,omitempty"`
}

// Fig12NRHValues is the x-axis of Fig. 12.
func Fig12NRHValues() []int { return []int{64, 128, 256, 512, 1024} }

// Fig12 sweeps the RowHammer threshold for preventive refresh (§9.2):
// Baseline (no defense), PARA, and PARA+HiRA-{0,2,4,8}, on a fresh
// single-sweep engine.
func Fig12(ctx context.Context, opts Options, nrhs []int) ([]Fig12Row, error) {
	return newSweepEngine(opts).Fig12(ctx, opts, nrhs)
}

// Fig12 runs the RowHammer-threshold sweep on the shared engine.
func (e *Engine) Fig12(ctx context.Context, opts Options, nrhs []int) ([]Fig12Row, error) {
	if nrhs == nil {
		nrhs = Fig12NRHValues()
	}
	opts = opts.withDefaults()
	var rows []Fig12Row
	for _, nrh := range nrhs {
		policies := []RefreshPolicy{
			BaselinePolicy(), PARAPolicy(nrh),
			PARAHiRAPolicy(nrh, 0), PARAHiRAPolicy(nrh, 2),
			PARAHiRAPolicy(nrh, 4), PARAHiRAPolicy(nrh, 8),
		}
		scores, err := runPolicies(ctx, e, DefaultConfig(), policies, opts)
		if err != nil {
			return nil, err
		}
		row := Fig12Row{NRH: nrh,
			WS: map[string]float64{}, NormBaseline: map[string]float64{}, NormPARA: map[string]float64{},
			Forensics: forensicsByPolicy(scores)}
		for _, s := range scores {
			row.WS[s.Policy.Name] = s.WS
		}
		for name, ws := range row.WS {
			if b := row.WS["Baseline"]; b > 0 {
				row.NormBaseline[name] = ws / b
			}
			if p := row.WS["PARA"]; p > 0 {
				row.NormPARA[name] = ws / p
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ScaleRow is one point of the §10 channel/rank sensitivity sweeps
// (Figs. 13-16).
type ScaleRow struct {
	// X is the swept quantity (channel or rank count).
	X int `json:"x"`
	// Param is the second parameter (chip capacity for Figs. 13/14, NRH
	// for Figs. 15/16).
	Param int                `json:"param"`
	WS    map[string]float64 `json:"ws"`
	// Forensics maps policy name to its aggregated forensics summary;
	// nil unless the sweep ran with Options.Forensics.
	Forensics map[string]*ForensicsSummary `json:"forensics,omitempty"`
}

// scaleSweep runs policies across a channels/ranks sweep on one shared
// engine, so cells repeated across sweep points simulate once.
func scaleSweep(ctx context.Context, e *Engine, opts Options, xs []int, params []int, channels bool,
	mkPolicies func(param int) []RefreshPolicy, mkCap func(param int) int) ([]ScaleRow, error) {
	opts = opts.withDefaults()
	var rows []ScaleRow
	for _, param := range params {
		for _, x := range xs {
			base := DefaultConfig()
			base.ChipCapacityGbit = mkCap(param)
			if channels {
				base.Channels = x
			} else {
				base.Ranks = x
			}
			scores, err := runPolicies(ctx, e, base, mkPolicies(param), opts)
			if err != nil {
				return nil, err
			}
			row := ScaleRow{X: x, Param: param, WS: map[string]float64{},
				Forensics: forensicsByPolicy(scores)}
			for _, s := range scores {
				row.WS[s.Policy.Name] = s.WS
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// ScaleXValues is the channel/rank sweep of §10.
func ScaleXValues() []int { return []int{1, 2, 4, 8} }

// periodicScalePolicies is the policy set of Figs. 13/14.
func periodicScalePolicies(int) []RefreshPolicy {
	return []RefreshPolicy{BaselinePolicy(), HiRAPeriodicPolicy(2), HiRAPeriodicPolicy(4)}
}

// paraScalePolicies is the policy set of Figs. 15/16.
func paraScalePolicies(nrh int) []RefreshPolicy {
	return []RefreshPolicy{PARAPolicy(nrh), PARAHiRAPolicy(nrh, 2), PARAHiRAPolicy(nrh, 4)}
}

// Fig13 sweeps channel count under periodic refresh for chip capacities
// {2, 8, 32} Gb with Baseline, HiRA-2, HiRA-4.
func Fig13(ctx context.Context, opts Options, xs, caps []int) ([]ScaleRow, error) {
	return newSweepEngine(opts).Fig13(ctx, opts, xs, caps)
}

// Fig13 runs the channel sweep on the shared engine.
func (e *Engine) Fig13(ctx context.Context, opts Options, xs, caps []int) ([]ScaleRow, error) {
	if xs == nil {
		xs = ScaleXValues()
	}
	if caps == nil {
		caps = []int{2, 8, 32}
	}
	return scaleSweep(ctx, e, opts, xs, caps, true, periodicScalePolicies,
		func(cap int) int { return cap })
}

// Fig14 sweeps rank count under periodic refresh.
func Fig14(ctx context.Context, opts Options, xs, caps []int) ([]ScaleRow, error) {
	return newSweepEngine(opts).Fig14(ctx, opts, xs, caps)
}

// Fig14 runs the rank sweep on the shared engine.
func (e *Engine) Fig14(ctx context.Context, opts Options, xs, caps []int) ([]ScaleRow, error) {
	if xs == nil {
		xs = ScaleXValues()
	}
	if caps == nil {
		caps = []int{2, 8, 32}
	}
	return scaleSweep(ctx, e, opts, xs, caps, false, periodicScalePolicies,
		func(cap int) int { return cap })
}

// Fig15 sweeps channel count under PARA for NRH {1024, 256, 64}.
func Fig15(ctx context.Context, opts Options, xs, nrhs []int) ([]ScaleRow, error) {
	return newSweepEngine(opts).Fig15(ctx, opts, xs, nrhs)
}

// Fig15 runs the PARA channel sweep on the shared engine.
func (e *Engine) Fig15(ctx context.Context, opts Options, xs, nrhs []int) ([]ScaleRow, error) {
	if xs == nil {
		xs = ScaleXValues()
	}
	if nrhs == nil {
		nrhs = []int{1024, 256, 64}
	}
	return scaleSweep(ctx, e, opts, xs, nrhs, true, paraScalePolicies,
		func(int) int { return 8 })
}

// Fig16 sweeps rank count under PARA.
func Fig16(ctx context.Context, opts Options, xs, nrhs []int) ([]ScaleRow, error) {
	return newSweepEngine(opts).Fig16(ctx, opts, xs, nrhs)
}

// Fig16 runs the PARA rank sweep on the shared engine.
func (e *Engine) Fig16(ctx context.Context, opts Options, xs, nrhs []int) ([]ScaleRow, error) {
	if xs == nil {
		xs = ScaleXValues()
	}
	if nrhs == nil {
		nrhs = []int{1024, 256, 64}
	}
	return scaleSweep(ctx, e, opts, xs, nrhs, false, paraScalePolicies,
		func(int) int { return 8 })
}

// AttackKinds lists the attacker presets AttackSweep runs by default:
// plain single-, double-, and many-sided hammering, a
// refresh-synchronized double-sided variant (hammer bursts separated by
// idle gaps, probing duty-cycled trackers), and a decoy variant
// (interleaved far-row accesses diluting activation-frequency trackers).
func AttackKinds() []string {
	return []string{"single", "double", "many", "refsync", "decoy"}
}

// attackPreset builds the AttackSpec one preset names, targeting the
// middle row of bank 2 of the given organization.
func attackPreset(kind string, org dram.Org) (workload.AttackSpec, error) {
	spec := workload.AttackSpec{Bank: 2, VictimRow: org.RowsPerBank() / 2}
	switch kind {
	case "single":
		spec.Kind = workload.AttackSingle
	case "double":
		spec.Kind = workload.AttackDouble
	case "many":
		spec.Kind = workload.AttackMany
		spec.Aggressors = 8
	case "refsync":
		spec.Kind = workload.AttackDouble
		spec.BurstAccesses = 128
		spec.IdleGap = 2048
	case "decoy":
		spec.Kind = workload.AttackDouble
		spec.Decoys = 4
	default:
		return spec, fmt.Errorf("sim: unknown attack kind %q (want one of %v)", kind, AttackKinds())
	}
	return spec, nil
}

// AttackRow is one (attack, NRH) point of the attack×mitigation sweep:
// weighted speedups per policy plus each policy's forensics summary —
// the efficacy verdict lives in Forensics[policy].MaxVictimExposure and
// .Tally.VictimCrossings against the row's NRH.
type AttackRow struct {
	Attack string             `json:"attack"`
	NRH    int                `json:"nrh"`
	WS     map[string]float64 `json:"ws"`
	// NormBaseline normalizes each policy's WS to the no-defense
	// Baseline under the same attack: the performance cost of defending.
	NormBaseline map[string]float64           `json:"norm_baseline"`
	Forensics    map[string]*ForensicsSummary `json:"forensics,omitempty"`
}

// AttackNRHValues is the default threshold axis of the attack sweep: low
// enough that an unmitigated attack crosses NRH within a laptop-scale
// measured phase. (An attack round spreads its activations over each
// aggressor's whole eviction class, so victim exposure accrues at
// roughly 2/(aggressors*EvictRows) of the bank's activation rate —
// around 200 over the default horizons.)
func AttackNRHValues() []int { return []int{64, 128} }

// attackSweepPolicies is the mitigation zoo evaluated at one threshold:
// no defense, PARA (the paper's probabilistic preventive baseline), and
// the two deterministic zoo engines with their default sizing. The
// Baseline entry carries the row's NRH purely to anchor its forensics
// ledger thresholds — with no preventive mechanism the engine never
// consults it, so the cell's command stream is the true no-defense run.
func attackSweepPolicies(nrh int) []RefreshPolicy {
	base := BaselinePolicy()
	base.NRH = nrh
	return []RefreshPolicy{
		base,
		PARAPolicy(nrh),
		GraphenePolicy(nrh, 0),
		RFMPolicy(nrh, 0),
	}
}

// AttackSweep runs the attack×mitigation×NRH grid on a fresh
// single-sweep engine.
func AttackSweep(ctx context.Context, opts Options, attacks []string, nrhs []int) ([]AttackRow, error) {
	return newSweepEngine(opts).AttackSweep(ctx, opts, attacks, nrhs)
}

// AttackSweep runs each attacker preset (core 0 of an otherwise benign
// mix) against each mitigation at each RowHammer threshold, on the
// shared engine. Attack cells always run with the forensics ledger
// enabled: the sweep's deliverable is the per-point efficacy metrics
// (victim exposure and crossings) alongside weighted speedup. Nil
// attacks or nrhs take the defaults.
func (e *Engine) AttackSweep(ctx context.Context, opts Options, attacks []string, nrhs []int) ([]AttackRow, error) {
	if attacks == nil {
		attacks = AttackKinds()
	}
	if nrhs == nil {
		nrhs = AttackNRHValues()
	}
	opts = opts.withDefaults()
	opts.Forensics = true
	base := DefaultConfig()
	org := OrgFor(base)
	// The non-attacker cores run the first builtin SPEC mix drawn from
	// the seed — the attack hides in otherwise benign traffic.
	benign := workload.Mixes(1, opts.Cores, opts.Seed)[0].Sources()
	var rows []AttackRow
	for _, kind := range attacks {
		spec, err := attackPreset(kind, org)
		if err != nil {
			return nil, err
		}
		atk, err := workload.NewAttack(spec, org)
		if err != nil {
			return nil, err
		}
		mix := workload.SourceMix{ID: 0,
			Sources: append([]workload.Source{atk}, benign.Sources[1:]...)}
		aOpts := opts
		aOpts.Mixes = []workload.SourceMix{mix}
		aOpts.Workloads = 1
		for _, nrh := range nrhs {
			scores, err := runPolicies(ctx, e, base, attackSweepPolicies(nrh), aOpts)
			if err != nil {
				return nil, err
			}
			row := AttackRow{Attack: kind, NRH: nrh,
				WS: map[string]float64{}, NormBaseline: map[string]float64{},
				Forensics: forensicsByPolicy(scores)}
			for _, s := range scores {
				row.WS[s.Policy.Name] = s.WS
			}
			for name, ws := range row.WS {
				if b := row.WS["Baseline"]; b > 0 {
					row.NormBaseline[name] = ws / b
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FigureResult is the serializable envelope of one figure run: exactly
// one of the row slices is set, per Kind. cmd/hira-sim's -json flag and
// the experiment service emit this identical encoding, so CLI and HTTP
// outputs are diffable.
type FigureResult struct {
	Kind   string      `json:"kind"`
	Fig9   []Fig9Row   `json:"fig9,omitempty"`
	Fig12  []Fig12Row  `json:"fig12,omitempty"`
	Scale  []ScaleRow  `json:"scale,omitempty"`
	Attack []AttackRow `json:"attack,omitempty"`
	// Stats tallies how the engine resolved this figure's cells.
	Stats EngineStats `json:"engine_stats"`
}

// Figure runs one named figure sweep on a fresh single-sweep engine.
func Figure(ctx context.Context, kind string, opts Options, xs, params []int) (*FigureResult, error) {
	return newSweepEngine(opts).Figure(ctx, kind, opts, xs, params)
}

// Figure runs one named figure sweep on the shared engine and wraps the
// rows in the serializable envelope. xs is the channel/rank axis of
// figs. 13-16 (ignored otherwise); params is the figure's second
// parameter set: capacities for fig9/13/14, NRH values for fig12/15/16.
// Nil slices take each figure's paper defaults (an empty non-nil
// slice, by contrast, sweeps nothing and returns no rows).
func (e *Engine) Figure(ctx context.Context, kind string, opts Options, xs, params []int) (*FigureResult, error) {
	var figStats EngineStats
	userStats := opts.Stats
	opts.Stats = &figStats

	res := &FigureResult{Kind: kind}
	var err error
	switch kind {
	case "fig9":
		res.Fig9, err = e.Fig9(ctx, opts, params)
	case "fig12":
		res.Fig12, err = e.Fig12(ctx, opts, params)
	case "fig13":
		res.Scale, err = e.Fig13(ctx, opts, xs, params)
	case "fig14":
		res.Scale, err = e.Fig14(ctx, opts, xs, params)
	case "fig15":
		res.Scale, err = e.Fig15(ctx, opts, xs, params)
	case "fig16":
		res.Scale, err = e.Fig16(ctx, opts, xs, params)
	case "attack":
		// params is the NRH axis; the attack set is the default presets
		// (callers wanting a custom set use AttackSweep directly).
		res.Attack, err = e.AttackSweep(ctx, opts, nil, params)
	default:
		return nil, fmt.Errorf("sim: unknown figure kind %q", kind)
	}
	if userStats != nil {
		userStats.Add(figStats)
	}
	if err != nil {
		return nil, err
	}
	res.Stats = figStats
	return res, nil
}
