package sim

import (
	"bytes"
	"context"
	"testing"

	"hira/internal/dram"
	"hira/internal/workload"
)

// TestResumeEquivalence proves the Snapshot/Restore tentpole guarantee:
// snapshotting a system at an arbitrary tick, restoring it, and running
// on is bit-identical to the straight-through run — same command stream,
// same cumulative stats, same measured-phase result — across all six
// figure policy shapes (ideal, conventional REF, periodic HiRA at two
// slacks, PARA, and PARA+HiRA), with snapshot points both inside the
// warmup and inside the measured phase.
func TestResumeEquivalence(t *testing.T) {
	policies := []RefreshPolicy{
		NoRefreshPolicy(),
		BaselinePolicy(),
		HiRAPeriodicPolicy(2),
		HiRAPeriodicPolicy(8),
		PARAPolicy(256),
		PARAHiRAPolicy(256, 4),
	}
	warmup, measure := 3000, 9000
	if testing.Short() {
		warmup, measure = 1000, 4000
	}
	mix := workload.Mixes(1, 4, 5)[0].Sources()
	for _, pol := range policies {
		pol := pol
		t.Run(pol.Name, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig()
			cfg.Cores = 4
			cfg.ChipCapacityGbit = 32
			cfg.Policy = pol
			cfg.Seed = 5

			// Straight-through reference.
			ref, err := NewSystem(cfg, mix)
			if err != nil {
				t.Fatal(err)
			}
			var refCmds []dram.Command
			ref.Controller().CommandHook = func(c dram.Command) { refCmds = append(refCmds, c) }
			refRes := ref.Run(warmup, measure, nil)

			for _, snapAt := range []int{warmup * 2 / 3, warmup + measure/2} {
				snapAt := snapAt
				// Prefix run to the snapshot point, replicating the
				// phase bookkeeping Run would have done so far.
				pre, err := NewSystem(cfg, mix)
				if err != nil {
					t.Fatal(err)
				}
				var cmds []dram.Command
				hook := func(c dram.Command) { cmds = append(cmds, c) }
				pre.Controller().CommandHook = hook
				ctx := context.Background()
				var mark runMark
				if snapAt >= warmup {
					if err := pre.RunTo(ctx, warmup); err != nil {
						t.Fatal(err)
					}
					mark = pre.mark()
				}
				if err := pre.RunTo(ctx, snapAt); err != nil {
					t.Fatal(err)
				}
				data, err := pre.Snapshot()
				if err != nil {
					t.Fatal(err)
				}

				// Restore and finish the run on the restored machine.
				res, err := RestoreSystem(cfg, mix, data)
				if err != nil {
					t.Fatalf("restore at %d: %v", snapAt, err)
				}
				if res.Ticks() != snapAt {
					t.Fatalf("restored at tick %d, want %d", res.Ticks(), snapAt)
				}
				res.Controller().CommandHook = hook
				if snapAt < warmup {
					if err := res.RunTo(ctx, warmup); err != nil {
						t.Fatal(err)
					}
					mark = res.mark()
				}
				if err := res.RunTo(ctx, warmup+measure); err != nil {
					t.Fatal(err)
				}
				got := res.resultSince(mark, measure)

				if len(cmds) != len(refCmds) {
					t.Fatalf("snap@%d: command counts diverged: resumed %d ref %d",
						snapAt, len(cmds), len(refCmds))
				}
				for i := range refCmds {
					if cmds[i] != refCmds[i] {
						t.Fatalf("snap@%d: command %d diverged:\nresumed: %+v\nref:     %+v",
							snapAt, i, cmds[i], refCmds[i])
					}
				}
				if got.Sched != refRes.Sched {
					t.Fatalf("snap@%d: stats diverged:\nresumed: %+v\nref:     %+v",
						snapAt, got.Sched, refRes.Sched)
				}
				for i := range refRes.IPC {
					if got.IPC[i] != refRes.IPC[i] {
						t.Fatalf("snap@%d: core %d IPC diverged: resumed %v ref %v",
							snapAt, i, got.IPC[i], refRes.IPC[i])
					}
				}
				if got.LLCHitRate != refRes.LLCHitRate {
					t.Fatalf("snap@%d: LLC hit rate diverged: resumed %v ref %v",
						snapAt, got.LLCHitRate, refRes.LLCHitRate)
				}
				if res.Controller().Now() != ref.Controller().Now() {
					t.Fatalf("snap@%d: clocks diverged", snapAt)
				}
			}
		})
	}
}

// TestSnapshotDeterministic proves a snapshot is a pure function of the
// machine state: snapshotting twice (and snapshotting a restored system)
// yields identical bytes, which the content-addressed store relies on.
func TestSnapshotDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.ChipCapacityGbit = 8
	cfg.Policy = PARAHiRAPolicy(512, 2)
	mix := workload.Mixes(1, 2, 1)[0].Sources()
	sys, err := NewSystem(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RunTo(context.Background(), 2500); err != nil {
		t.Fatal(err)
	}
	a, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("re-snapshotting the same state produced different bytes")
	}
	restored, err := RestoreSystem(cfg, mix, a)
	if err != nil {
		t.Fatal(err)
	}
	c, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Fatal("snapshot of a restored system diverged from the original")
	}
}

// TestRestoreRejectsMismatch covers the clean-miss contract for
// well-formed-but-wrong inputs: a snapshot restores only into the
// trajectory it was taken from.
func TestRestoreRejectsMismatch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.ChipCapacityGbit = 8
	mix := workload.Mixes(1, 2, 1)[0].Sources()
	sys, err := NewSystem(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RunTo(context.Background(), 500); err != nil {
		t.Fatal(err)
	}
	data, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed = 99
	if _, err := RestoreSystem(other, mix, data); err == nil {
		t.Fatal("snapshot restored into a different trajectory")
	}
	if _, err := RestoreSystem(cfg, mix, data[:len(data)-3]); err == nil {
		t.Fatal("truncated snapshot restored")
	}
	if _, err := RestoreSystem(cfg, mix, []byte("not a snapshot")); err == nil {
		t.Fatal("garbage restored")
	}
}

// fuzzSnapshotConfig is the small fixed system FuzzSnapshotDecode decodes
// into (the config is trusted; only the snapshot bytes are hostile).
func fuzzSnapshotConfig() (Config, workload.SourceMix) {
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.ChipCapacityGbit = 2
	cfg.Policy = PARAHiRAPolicy(512, 2)
	cfg.Seed = 3
	return cfg, workload.Mixes(1, 2, 3)[0].Sources()
}

// FuzzSnapshotDecode holds RestoreSystem to the FuzzTraceRead contract:
// corrupt or truncated checkpoints are clean misses — they never panic,
// allocation stays bounded by the input, and anything that does decode
// yields a machine that survives being run. Snapshots of the retired v1
// format ("HIRASYS1") are always clean misses, however well formed.
func FuzzSnapshotDecode(f *testing.F) {
	cfg, mix := fuzzSnapshotConfig()
	sys, err := NewSystem(cfg, mix)
	if err != nil {
		f.Fatal(err)
	}
	if err := sys.RunTo(context.Background(), 600); err != nil {
		f.Fatal(err)
	}
	seed, err := sys.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte(snapshotMagic))
	f.Add([]byte("HIRASYS1\x00\x00\x00\x00"))
	f.Add(append([]byte("HIRASYS1"), seed[len(snapshotMagic):]...))
	mut := append([]byte(nil), seed...)
	mut[len(mut)/3] ^= 0x40
	f.Add(mut)
	f.Fuzz(func(t *testing.T, data []byte) {
		restored, err := RestoreSystem(cfg, mix, data)
		if err != nil {
			return // clean miss
		}
		if hasMagic(data, "HIRASYS1") {
			t.Fatal("v1 snapshot restored")
		}
		// A snapshot that passed validation must be safe to simulate.
		for i := 0; i < 64; i++ {
			restored.Tick()
		}
	})
}
