package sim

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"hira/internal/engine"
	"hira/internal/workload"
)

// plannerTestPolicies is the six-policy figure set every planner
// differential runs against (the same shapes TestResumeEquivalence
// covers: ideal, conventional REF, periodic HiRA at two slacks, PARA,
// and PARA+HiRA).
func plannerTestPolicies() []RefreshPolicy {
	return []RefreshPolicy{
		NoRefreshPolicy(),
		BaselinePolicy(),
		HiRAPeriodicPolicy(2),
		HiRAPeriodicPolicy(8),
		PARAPolicy(256),
		PARAHiRAPolicy(256, 4),
	}
}

// oracleSimCell computes one sim cell straight through: a cold machine
// runs to the warmup boundary, marks it, and runs on to the horizon — no
// engine, no pass, no checkpointer — so it shares no code with the pass
// runner it is the reference for.
func oracleSimCell(t testing.TB, cfg Config, mix workload.SourceMix, warmup, measure int) CellResult {
	t.Helper()
	ctx := context.Background()
	sys, err := NewSystem(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RunTo(ctx, warmup); err != nil {
		t.Fatal(err)
	}
	m := sys.mark()
	if err := sys.RunTo(ctx, warmup+measure); err != nil {
		t.Fatal(err)
	}
	return simCellResult(sys.resultSince(m, measure))
}

// oracleAloneCell computes one alone-IPC reference straight through.
func oracleAloneCell(t testing.TB, src workload.Source, seed uint64, ticks int) CellResult {
	t.Helper()
	a := newAloneRun(src, seed)
	if err := a.RunTo(context.Background(), ticks); err != nil {
		t.Fatal(err)
	}
	return CellResult{Alone: a.ipc()}
}

// assertSweepMatchesOracle proves every cell of a policies-by-horizons
// sweep already run on lab is bit-identical to its straight-through
// oracle: it resubmits the sweep's cells (served from lab's cache,
// never recomputed) and compares each with reflect.DeepEqual. It
// returns the machine work, in ticks, of resolving the sweep's unique
// cells one cold run each, and of running each trajectory once to its
// longest horizon.
func assertSweepMatchesOracle(t *testing.T, lab *Engine, base Config, policies []RefreshPolicy, opts Options, measures []int) (perCell, perTrajectory uint64) {
	t.Helper()
	opts = opts.withDefaults()
	mixes, err := opts.sourceMixes()
	if err != nil {
		t.Fatal(err)
	}
	var cells []engine.Cell[CellResult]
	var want []CellResult
	seen := map[string]bool{}
	longest := map[string]int{}
	add := func(c engine.Cell[CellResult], oracle func() CellResult) {
		if seen[c.Key] {
			return
		}
		seen[c.Key] = true
		cells = append(cells, c)
		want = append(want, oracle())
		perCell += uint64(c.Horizon)
		longest[c.Group] = max(longest[c.Group], c.Horizon)
	}
	for _, measure := range measures {
		for _, mix := range mixes {
			for c, src := range mix.Sources {
				seed := aloneRefSeed(src, opts.Seed, c)
				add(aloneCell(lab, src, seed, measure), func() CellResult { return oracleAloneCell(t, src, seed, measure) })
			}
		}
		for _, pol := range policies {
			cfg := base
			cfg.Cores = opts.Cores
			cfg.Policy = pol
			cfg.Seed = opts.Seed
			cfg.Forensics = ForensicsOptions{Enabled: opts.Forensics, Recorder: opts.Forensics && opts.ForensicsRecorder}
			for _, mix := range mixes {
				add(simCell(lab, cfg, mix, opts.Warmup, measure), func() CellResult {
					return oracleSimCell(t, cfg, mix, opts.Warmup, measure)
				})
			}
		}
	}
	for _, h := range longest {
		perTrajectory += uint64(h)
	}
	got, stats, err := lab.eng.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Simulated != 0 {
		t.Fatalf("resubmitted sweep simulated %d cells; the sweep left them unresolved", stats.Simulated)
	}
	for i, c := range cells {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("cell %q diverged from the straight-through oracle:\nengine: %+v\noracle: %+v", c.Key, got[i], want[i])
		}
	}
	return perCell, perTrajectory
}

// TestPlannerDifferential proves the tentpole guarantee: a multi-horizon
// sweep resolved by the trajectory-coalescing planner produces cells
// bit-identical to straight-through runs, across all six figure
// policies, while each trajectory simulates once to its longest horizon
// instead of once per cell.
func TestPlannerDifferential(t *testing.T) {
	ctx := context.Background()
	base := DefaultConfig()
	base.ChipCapacityGbit = 8
	policies := plannerTestPolicies()
	measures := []int{3000, 6000}
	opts := Options{Workloads: 1, Cores: 4, Warmup: 2000, Seed: 5}

	var planned EngineStats
	pOpts := opts
	pOpts.Stats = &planned
	lab := NewEngine(EngineConfig{SnapInterval: 1500})
	if _, err := lab.RunPoliciesHorizons(ctx, base, policies, pOpts, measures); err != nil {
		t.Fatal(err)
	}
	perCell, perTrajectory := assertSweepMatchesOracle(t, lab, base, policies, opts, measures)
	if planned.PlannedPasses == 0 || planned.PlannedCells == 0 {
		t.Fatalf("planner did not engage: %+v", planned)
	}
	// The planner's savings: simulated plus checkpoint-restored ticks is
	// the total machine work, and on a cold engine it is exactly one run
	// per trajectory to its longest horizon.
	work := planned.SimulatedTicks + planned.ResumedTicks
	if work != perTrajectory || work >= perCell {
		t.Fatalf("planned work %d ticks, want %d (one run per trajectory) and below %d (one run per cell)",
			work, perTrajectory, perCell)
	}
}

// TestPlannerDifferentialForensicsAndMitigation extends the differential
// to the cell kinds that cannot checkpoint: forensics-armed cells and
// mitigation-zoo policies run their passes cold, but still coalesce and
// still must match straight-through runs exactly.
func TestPlannerDifferentialForensicsAndMitigation(t *testing.T) {
	ctx := context.Background()
	base := DefaultConfig()
	base.ChipCapacityGbit = 8
	policies := []RefreshPolicy{BaselinePolicy(), GraphenePolicy(128, 0), RFMPolicy(128, 0)}
	measures := []int{2000, 4000}
	opts := Options{Workloads: 1, Cores: 2, Warmup: 1000, Seed: 3, Forensics: true}

	lab := NewEngine(EngineConfig{SnapInterval: 1000})
	if _, err := lab.RunPoliciesHorizons(ctx, base, policies, opts, measures); err != nil {
		t.Fatal(err)
	}
	assertSweepMatchesOracle(t, lab, base, policies, opts, measures)
}

// TestPlannerWarmStoreReplay proves pass-emitted rows live under their
// own per-cell keys: a planned multi-horizon sweep fully warms the
// result store, so replaying each horizon as its own single-horizon
// sweep on a fresh engine simulates nothing and reproduces the rows.
func TestPlannerWarmStoreReplay(t *testing.T) {
	ctx := context.Background()
	base := DefaultConfig()
	base.ChipCapacityGbit = 8
	policies := []RefreshPolicy{BaselinePolicy(), HiRAPeriodicPolicy(2)}
	measures := []int{2000, 5000}
	opts := Options{Workloads: 1, Cores: 2, Warmup: 1000, Seed: 1}
	dir := t.TempDir()

	rows, err := NewEngine(EngineConfig{ResultDir: dir, SnapInterval: 1000}).
		RunPoliciesHorizons(ctx, base, policies, opts, measures)
	if err != nil {
		t.Fatal(err)
	}
	replay := NewEngine(EngineConfig{ResultDir: dir, SnapInterval: 1000})
	for i, measure := range measures {
		var again EngineStats
		one := opts
		one.Measure = measure
		one.Stats = &again
		got, err := replay.RunPolicies(ctx, base, policies, one)
		if err != nil {
			t.Fatal(err)
		}
		if again.Simulated != 0 {
			t.Fatalf("replay of measure %d re-simulated %d cells: %+v", measure, again.Simulated, again)
		}
		if !reflect.DeepEqual(got, rows[i]) {
			t.Fatalf("replay rows diverged at measure %d", measure)
		}
	}
}

// TestPlannerPassCancellation proves a cancelled coalesced pass keeps
// the rows it already emitted: cancelling right after the first
// member's emission fails the pass, but that member's row is final and
// bit-identical to a straight-through run.
func TestPlannerPassCancellation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.ChipCapacityGbit = 8
	cfg.Seed = 1
	cfg.Policy = BaselinePolicy()
	mix := workload.Mixes(1, 2, 1)[0].Sources()
	lab := NewEngine(EngineConfig{SnapInterval: 1000})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	members := []engine.Member{
		{Key: simCellKey(cfg, mix, 1000, 3000), Horizon: 4000,
			Payload: simPassPayload{cfg: cfg, mix: mix, warmup: 1000, measure: 3000}},
		{Key: simCellKey(cfg, mix, 2000, 10000), Horizon: 12000,
			Payload: simPassPayload{cfg: cfg, mix: mix, warmup: 2000, measure: 10000}},
	}
	emitted := map[int]CellResult{}
	err := runSimPass(ctx, lab, members, func(i int, r CellResult) {
		emitted[i] = r
		cancel() // first emission cancels the pass mid-flight
	})
	if err == nil {
		t.Fatal("cancelled pass reported success")
	}
	if len(emitted) != 1 {
		t.Fatalf("cancelled pass emitted %d rows, want 1", len(emitted))
	}
	if ref := oracleSimCell(t, cfg, mix, 1000, 3000); !reflect.DeepEqual(emitted[0], ref) {
		t.Fatalf("row emitted before cancellation diverged from a straight-through run:\npass:   %+v\noracle: %+v",
			emitted[0], ref)
	}
}

// TestPlannerBatchCancellation proves batch-level cancellation
// semantics end to end: a cancelled multi-horizon sweep fails, but
// every row resolved before the cancellation stays cached and serves
// the resubmitted sweep.
func TestPlannerBatchCancellation(t *testing.T) {
	base := DefaultConfig()
	base.ChipCapacityGbit = 8
	policies := plannerTestPolicies()
	measures := []int{2000, 4000}
	e := NewEngine(EngineConfig{SnapInterval: 1000, Parallelism: 1})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{Workloads: 1, Cores: 2, Warmup: 1000, Seed: 2}
	cOpts := opts
	cOpts.ProgressStats = func(done, total int, batch EngineStats) {
		if done >= 1 {
			cancel() // with Parallelism 1 at least one later unit must fail
		}
	}
	if _, err := e.RunPoliciesHorizons(ctx, base, policies, cOpts, measures); err == nil {
		t.Fatal("cancelled sweep reported success")
	}

	var again EngineStats
	rOpts := opts
	rOpts.Stats = &again
	if _, err := e.RunPoliciesHorizons(context.Background(), base, policies, rOpts, measures); err != nil {
		t.Fatal(err)
	}
	if again.CacheHits+again.StoreHits == 0 {
		t.Fatalf("cancellation kept no resolved rows: %+v", again)
	}
	assertSweepMatchesOracle(t, e, base, policies, opts, measures)
}

// resumeChain restores the longest checkpoint of ck's trajectory at or
// below horizon through its delta chain and seeds ck's delta epoch from
// it, as a pass's resume does; nil when nothing restores.
func resumeChain(ctx context.Context, ck *checkpointer, cfg Config, mix workload.SourceMix, horizon int) *System {
	var sys *System
	ck.resumeLongest(ctx, horizon, func(t int, data []byte) bool {
		s, depth, err := ck.restoreChain(cfg, mix, t, data)
		if err != nil || s.Ticks() != t {
			return false
		}
		sys = s
		ck.lastTick, ck.depth = t, depth
		return true
	})
	return sys
}

// TestDeltaCheckpointChain proves the differential-checkpoint format
// end to end at the checkpointer layer: interval saves after the first
// are deltas, a fresh checkpointer restores through the chain to state
// byte-identical to a straight run, and continuing the restored machine
// reproduces the straight-through result exactly.
func TestDeltaCheckpointChain(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.ChipCapacityGbit = 8
	cfg.Seed = 1
	cfg.Policy = BaselinePolicy()
	mix := workload.Mixes(1, 2, 1)[0].Sources()
	snaps := engine.NewSnapStore("", 0)
	ck := &checkpointer{snaps: snaps, interval: 1000, key: trajectoryKey(cfg, mix)}

	sys, err := NewSystem(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.runTo(ctx, sys, 5000); err != nil {
		t.Fatal(err)
	}
	st := snaps.Stats()
	if st.Saves != 5 || st.DeltaSaves != 4 {
		t.Fatalf("want 1 full + 4 delta checkpoints, got %d saves (%d deltas)", st.Saves, st.DeltaSaves)
	}
	if st.DeltaBytes == 0 || st.DeltaBytes >= uint64(st.Bytes) {
		t.Fatalf("delta byte accounting off: %d of %d", st.DeltaBytes, st.Bytes)
	}

	ck2 := &checkpointer{snaps: snaps, interval: 1000, key: ck.key}
	sys2 := resumeChain(ctx, ck2, cfg, mix, 6000)
	if sys2 == nil || sys2.Ticks() != 5000 {
		t.Fatalf("chain resume failed (got %v)", sys2)
	}
	mark, haveMark := ck2.loadMark(cfg, 2000)
	if !haveMark {
		t.Fatal("warmup mark not recovered from delta checkpoint header")
	}
	if ck2.lastTick != 5000 || ck2.depth != 4 {
		t.Fatalf("resume epoch = (%d, %d), want (5000, 4)", ck2.lastTick, ck2.depth)
	}

	ref, err := NewSystem(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.RunTo(ctx, 5000); err != nil {
		t.Fatal(err)
	}
	a, err := sys2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("chain-restored state diverged from straight run")
	}

	if err := ck2.runTo(ctx, sys2, 6000); err != nil {
		t.Fatal(err)
	}
	got := simCellResult(sys2.resultSince(mark, 4000))
	if cold := oracleSimCell(t, cfg, mix, 2000, 4000); !reflect.DeepEqual(got, cold) {
		t.Fatalf("chain-resumed result diverged:\nresumed: %+v\ncold:    %+v", got, cold)
	}
}

// TestDeltaChainBounded proves the writer forces a full snapshot once a
// chain reaches maxDeltaChain links, so restore cost stays bounded.
func TestDeltaChainBounded(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.ChipCapacityGbit = 8
	cfg.Seed = 1
	cfg.Policy = BaselinePolicy()
	mix := workload.Mixes(1, 2, 1)[0].Sources()
	snaps := engine.NewSnapStore("", 0)
	ck := &checkpointer{snaps: snaps, interval: 500, key: trajectoryKey(cfg, mix)}
	sys, err := NewSystem(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	// 12 interval saves: full at 500, deltas to depth 8 at 4500, then a
	// forced full at 5000 and fresh deltas after it.
	if err := ck.runTo(ctx, sys, 6000); err != nil {
		t.Fatal(err)
	}
	st := snaps.Stats()
	fulls := st.Saves - st.DeltaSaves
	if fulls != 2 {
		t.Fatalf("want 2 full checkpoints in a 12-save run (chain cap %d), got %d", maxDeltaChain, fulls)
	}
	// The whole chain (including past the forced full) must restore.
	ck2 := &checkpointer{snaps: snaps, interval: 500, key: ck.key}
	sys2 := resumeChain(ctx, ck2, cfg, mix, 6000)
	if sys2 == nil || sys2.Ticks() != 6000 {
		t.Fatalf("resume across forced-full boundary failed (got %v)", sys2)
	}
}

// TestDeltaSnapshotPreSized pins the pre-sizing contract: the delta
// encoder's buffer is sized up front (encoded bytes never exceed
// SnapshotDeltaSize) and encoding allocates only the writer and its
// buffer — zero growth reallocations.
func TestDeltaSnapshotPreSized(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig()
	cfg.Cores = 4
	cfg.ChipCapacityGbit = 8
	cfg.Seed = 1
	cfg.Policy = BaselinePolicy()
	mix := workload.Mixes(1, 4, 1)[0].Sources()
	sys, err := NewSystem(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RunTo(ctx, 3000); err != nil {
		t.Fatal(err)
	}
	sys.ResetTouchedLines()
	if err := sys.RunTo(ctx, 4000); err != nil {
		t.Fatal(err)
	}
	data, err := sys.SnapshotDelta(3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > sys.SnapshotDeltaSize() {
		t.Fatalf("delta encoded %d bytes, pre-size bound %d", len(data), sys.SnapshotDeltaSize())
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := sys.SnapshotDelta(3000, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("delta encode allocated %v times, want <= 2 (writer + pre-sized buffer)", allocs)
	}
}

// FuzzDeltaSnapshotDecode holds the delta-apply path to the clean-miss
// contract: corrupt, truncated, or mis-chained delta checkpoints are
// rejected with an error — never a panic, never silently wrong state —
// and any delta that does apply yields a machine that survives running.
func FuzzDeltaSnapshotDecode(f *testing.F) {
	cfg, mix := fuzzSnapshotConfig()
	sys, err := NewSystem(cfg, mix)
	if err != nil {
		f.Fatal(err)
	}
	if err := sys.RunTo(context.Background(), 600); err != nil {
		f.Fatal(err)
	}
	base, err := sys.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	sys.ResetTouchedLines()
	if err := sys.RunTo(context.Background(), 900); err != nil {
		f.Fatal(err)
	}
	delta, err := sys.SnapshotDelta(600, 1)
	if err != nil {
		f.Fatal(err)
	}
	mischained, err := sys.SnapshotDelta(450, 2) // base tick no restored machine sits at
	if err != nil {
		f.Fatal(err)
	}
	f.Add(delta)
	f.Add(delta[:len(delta)/2])
	f.Add(mischained)
	f.Add([]byte(deltaMagic))
	mut := append([]byte(nil), delta...)
	mut[len(mut)/3] ^= 0x40
	f.Add(mut)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Real deltas for this config are a few KB; cap mutator-grown
		// inputs so each exec stays fast (decode work is input-bounded
		// but a multi-MB queue section decodes in ordered-insert time).
		if len(data) > 64<<10 {
			return
		}
		// Header validation is the cheap gate most hostile inputs die at;
		// only header-valid deltas pay for restoring the trusted base.
		if _, _, _, _, err := readDeltaHeader(data); err != nil {
			return // clean miss
		}
		s, err := RestoreSystem(cfg, mix, base) // trusted base at tick 600
		if err != nil {
			t.Fatal(err)
		}
		if err := applySystemDelta(s, data); err != nil {
			return // clean miss
		}
		// A delta that passed validation must be safe to simulate.
		for i := 0; i < 64; i++ {
			s.Tick()
		}
	})
}
