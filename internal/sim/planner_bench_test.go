package sim

import (
	"context"
	"testing"

	"hira/internal/workload"
)

// BenchmarkPlannedSweep runs a multi-horizon six-policy sweep on a
// fresh engine, each trajectory coalesced into one pass (see
// TestPlannerDifferential). Each op reports its simulated +
// checkpoint-restored ticks — the machine-work total that wall-clock
// noise can't touch.
func BenchmarkPlannedSweep(b *testing.B) {
	base := DefaultConfig()
	base.ChipCapacityGbit = 8
	policies := plannerTestPolicies()
	measures := []int{3000, 6000, 12000}
	opts := Options{Workloads: 1, Cores: 4, Warmup: 2000, Seed: 5}

	b.Run("planned", func(b *testing.B) {
		var ticks, passes uint64
		for i := 0; i < b.N; i++ {
			var stats EngineStats
			o := opts
			o.Stats = &stats
			e := NewEngine(EngineConfig{SnapInterval: 1500})
			if _, err := e.RunPoliciesHorizons(context.Background(), base, policies, o, measures); err != nil {
				b.Fatal(err)
			}
			ticks = stats.SimulatedTicks + stats.ResumedTicks
			passes = stats.PlannedPasses
		}
		b.ReportMetric(float64(ticks), "machine-ticks/op")
		b.ReportMetric(float64(passes), "passes/op")
	})
}

// BenchmarkDeltaCheckpoint times one checkpoint encode in each format —
// a full snapshot versus a differential over a checkpoint interval's
// worth of LLC traffic — and reports the encoded sizes. The delta must
// come in at least 4x smaller than the full snapshot: that margin is
// what makes hira-server's fine-grained default interval affordable.
func BenchmarkDeltaCheckpoint(b *testing.B) {
	ctx := context.Background()
	cfg := DefaultConfig()
	cfg.Cores = 4
	cfg.ChipCapacityGbit = 8
	cfg.Seed = 1
	cfg.Policy = BaselinePolicy()
	mix := workload.Mixes(1, 4, 1)[0].Sources()
	sys, err := NewSystem(cfg, mix)
	if err != nil {
		b.Fatal(err)
	}
	// Warm past the cold-start transient, then accumulate one
	// hira-server default interval (10k ticks) of touched lines — the
	// epoch a production delta actually covers.
	if err := sys.RunTo(ctx, 20000); err != nil {
		b.Fatal(err)
	}
	sys.ResetTouchedLines()
	if err := sys.RunTo(ctx, 30000); err != nil {
		b.Fatal(err)
	}

	full, err := sys.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	delta, err := sys.SnapshotDelta(20000, 1)
	if err != nil {
		b.Fatal(err)
	}
	if 4*len(delta) > len(full) {
		b.Fatalf("delta checkpoint %d bytes is not 4x smaller than the %d-byte full snapshot", len(delta), len(full))
	}

	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(full)), "bytes")
	})
	b.Run("delta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.SnapshotDelta(20000, 1); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(delta)), "bytes")
		b.ReportMetric(float64(len(full))/float64(len(delta)), "full/delta")
	})
}
