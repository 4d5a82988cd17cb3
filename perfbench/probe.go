package main

import (
	"context"
	"fmt"
	"time"

	"hira/internal/sim"
	"hira/internal/workload"
)

// probeOut holds the layer costs measured directly on a workload's own
// configuration and trajectory. Snapshot figures stay zero where the
// configuration cannot checkpoint.
type probeOut struct {
	newSystemMS   float64
	fullEncodeMS  float64
	deltaEncodeMS float64
	restoreMS     float64
	fullBytes     int
	deltaBytes    int
	llcHitRate    float64
}

// probeReps is how many times each probed call is timed; the median is
// reported.
const probeReps = 5

// timeMedianMS runs f probeReps times under a span and returns the
// median wall time in milliseconds.
func timeMedianMS(tr *tracer, name string, f func() error) (float64, error) {
	var ms []float64
	for i := 0; i < probeReps; i++ {
		_, end := tr.start("probe", name, 0)
		t0 := time.Now()
		err := f()
		ms = append(ms, float64(time.Since(t0))/1e6)
		end()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return median(ms), nil
}

// probeTarget is one system configuration and workload mix with the
// cell horizons the workload runs it at.
type probeTarget struct {
	cfg             sim.Config
	mix             workload.SourceMix
	warmup, measure int
}

// warm builds the target system and steps it briefly, so lazy
// initialization and first-touch page faults land in set-up rather
// than in the first timed rep.
func (t probeTarget) warm(ctx context.Context) error {
	sys, err := sim.NewSystem(t.cfg, t.mix)
	if err != nil {
		return err
	}
	return sys.RunTo(ctx, warmTicks)
}

// warmTicks is how far set-up steps the target system.
const warmTicks = 100000

// runProbe times NewSystem, Snapshot, SnapshotDelta (one checkpoint
// interval after the warmup boundary) and RestoreSystem on the target,
// then simulates one full cell for its LLC hit rate.
func runProbe(ctx context.Context, tr *tracer, t probeTarget) (probeOut, error) {
	cfg, mix, warmup, measure := t.cfg, t.mix, t.warmup, t.measure
	var out probeOut
	var err error
	out.newSystemMS, err = timeMedianMS(tr, "probe.newsystem", func() error {
		_, err := sim.NewSystem(cfg, mix)
		return err
	})
	if err != nil {
		return out, err
	}
	sys, err := sim.NewSystem(cfg, mix)
	if err != nil {
		return out, err
	}
	if err := sys.RunTo(ctx, warmup); err != nil {
		return out, err
	}
	if full, serr := sys.Snapshot(); serr == nil {
		out.fullBytes = len(full)
		if out.fullEncodeMS, err = timeMedianMS(tr, "probe.snapshot", func() error {
			_, err := sys.Snapshot()
			return err
		}); err != nil {
			return out, err
		}
		if out.restoreMS, err = timeMedianMS(tr, "probe.restore", func() error {
			_, err := sim.RestoreSystem(cfg, mix, full)
			return err
		}); err != nil {
			return out, err
		}
		sys.ResetTouchedLines()
		if err := sys.RunTo(ctx, warmup+snapInterval); err != nil {
			return out, err
		}
		var delta []byte
		if out.deltaEncodeMS, err = timeMedianMS(tr, "probe.snapshot_delta", func() error {
			delta, err = sys.SnapshotDelta(warmup, 1)
			return err
		}); err != nil {
			return out, err
		}
		out.deltaBytes = len(delta)
	}
	fresh, err := sim.NewSystem(cfg, mix)
	if err != nil {
		return out, err
	}
	_, end := tr.start("probe", "probe.run", 0)
	res, err := fresh.RunContext(ctx, warmup, measure, nil)
	end()
	if err != nil {
		return out, err
	}
	out.llcHitRate = res.LLCHitRate
	return out, nil
}
