package sim

import (
	"context"
	"reflect"
	"testing"

	"hira/internal/engine"
	"hira/internal/workload"
)

// TestResumableCells proves the engine-level guarantee: on a warm
// checkpoint store, extending a sweep's horizons simulates only the
// delta — the engine reports the cells as partially resumed — and the
// cells are bit-identical to cold straight-through runs.
func TestResumableCells(t *testing.T) {
	ctx := context.Background()
	base := DefaultConfig()
	base.ChipCapacityGbit = 8
	policies := []RefreshPolicy{BaselinePolicy(), HiRAPeriodicPolicy(2)}
	short := Options{Workloads: 2, Cores: 4, Warmup: 2000, Measure: 4000, Seed: 1}
	long := short
	long.Measure = 10000

	const interval = 1500
	warm := NewEngine(EngineConfig{SnapInterval: interval})

	// Populate the store with the short run's checkpoints.
	if _, err := warm.RunPolicies(ctx, base, policies, short); err != nil {
		t.Fatal(err)
	}
	snapStats, ok := warm.SnapshotStats()
	if !ok || snapStats.Saves == 0 {
		t.Fatalf("no checkpoints written: %+v", snapStats)
	}

	var stats EngineStats
	longOpts := long
	longOpts.Stats = &stats
	if _, err := warm.RunPolicies(ctx, base, policies, longOpts); err != nil {
		t.Fatal(err)
	}
	// Results must not depend on resume at all.
	assertSweepMatchesOracle(t, warm, base, policies, long, []int{long.Measure})

	// Every simulated cell — full-system and alone-IPC reference alike —
	// must have resumed from the short run's checkpoints rather than
	// simulated from tick zero.
	if stats.Simulated == 0 || stats.Resumed != stats.Simulated {
		t.Fatalf("Resumed = %d of %d simulated, want all; stats %+v", stats.Resumed, stats.Simulated, stats)
	}
	// Sim cells resume from the short run's final tick, alone cells from
	// its measured horizon, so the extension simulates exactly the
	// horizon delta.
	simCells := uint64(len(policies) * short.Workloads)
	aloneCells := stats.Resumed - simCells
	wantTicks := simCells*uint64(short.Warmup+short.Measure) + aloneCells*uint64(short.Measure)
	if stats.ResumedTicks != wantTicks {
		t.Fatalf("ResumedTicks = %d, want %d (%d sim + %d alone cells)",
			stats.ResumedTicks, wantTicks, simCells, aloneCells)
	}

	// Resubmitting the exact long run is a pure cache hit — resume never
	// degrades exact-match caching.
	var again EngineStats
	againOpts := long
	againOpts.Stats = &again
	if _, err := warm.RunPolicies(ctx, base, policies, againOpts); err != nil {
		t.Fatal(err)
	}
	if again.Simulated != 0 {
		t.Fatalf("warm resubmission simulated %d cells", again.Simulated)
	}
}

// TestResumableCellsSplitIndependence covers the warmup-boundary logic:
// a trajectory checkpointed by one warmup/measure split serves a run
// with a different split of the same trajectory, because measured
// results are differences of cumulative state and the runner checkpoints
// the warmup boundary it needs.
func TestResumableCellsSplitIndependence(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig()
	cfg.Cores = 4
	cfg.ChipCapacityGbit = 8
	cfg.Seed = 1
	cfg.Policy = BaselinePolicy()
	mix := workload.Mixes(1, 4, 1)[0].Sources()

	const interval = 1000
	warm := NewEngine(EngineConfig{SnapInterval: interval})

	// First run fixes the trajectory's checkpoints, including tick 6000.
	if _, _, err := warm.eng.Run(ctx, []engine.Cell[CellResult]{simCell(warm, cfg, mix, 2000, 4000)}); err != nil {
		t.Fatal(err)
	}
	// A different split whose warmup (3000) sits on the checkpoint grid:
	// the one-member pass restores tick 3000 for the mark and tick 6000
	// for the state, simulating only 6000..7000.
	got, stats, err := warm.eng.Run(ctx, []engine.Cell[CellResult]{simCell(warm, cfg, mix, 3000, 4000)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ResumedTicks != 6000 || stats.SimulatedTicks != 1000 {
		t.Fatalf("split run resumed %d and simulated %d ticks, want 6000 and 1000", stats.ResumedTicks, stats.SimulatedTicks)
	}
	if cold := oracleSimCell(t, cfg, mix, 3000, 4000); !reflect.DeepEqual(got[0], cold) {
		t.Fatalf("split-resumed result diverged from cold:\nwarm: %+v\ncold: %+v", got[0], cold)
	}
}
