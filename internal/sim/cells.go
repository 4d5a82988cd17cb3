package sim

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"hira/internal/engine"
	"hira/internal/sched"
	"hira/internal/telemetry"
	"hira/internal/workload"
)

// EngineStats tallies how the experiment engine resolved a sweep's cells
// (simulated vs served from cache or the result store). See Options.Stats.
type EngineStats = engine.Stats

// CellResult is the JSON-serializable payload of one engine cell: the
// measured-phase outputs of a full system simulation, or (for reference
// cells) an alone-IPC value. WeightedSpeedup is deliberately absent — it
// depends on other cells' alone references and is recomputed when sweeps
// assemble scores, so a cell's identity covers exactly its own inputs.
type CellResult struct {
	IPC        []float64   `json:"ipc,omitempty"`
	Sched      sched.Stats `json:"sched"`
	LLCHitRate float64     `json:"llc_hit_rate,omitempty"`
	Ticks      int         `json:"ticks,omitempty"`
	Alone      float64     `json:"alone,omitempty"`
	// Forensics is present only for cells simulated with the RowHammer
	// forensics ledger enabled (their keys carry a forensics suffix, so
	// plain and forensics cells never share a store entry).
	Forensics *ForensicsSummary `json:"forensics,omitempty"`
}

// experimentEngine is the engine instantiation every sweep runs on.
type experimentEngine = engine.Engine[CellResult]

// simCellKey names a full-system simulation cell. It encodes every input
// NewSystem and Run consume: system shape, refresh policy behavior
// (mode fields, not the display name, so identically configured policies
// share a cell), per-core workload identities (a profile's full
// parameter set or a trace's content digest — see workload.Source.Key,
// which guarantees distinct workloads never alias), seed, and tick
// counts. Builtin-profile keys are byte-identical to the pre-Source
// encoding, so existing result stores stay warm.
func simCellKey(cfg Config, mix workload.SourceMix, warmup, measure int) string {
	wl := make([]string, len(mix.Sources))
	for i, s := range mix.Sources {
		wl[i] = s.Key()
	}
	cov := cfg.SPTCoverage
	if cov == 0 {
		cov = defaultSPTCoverage // NewSystem's fallback; keep the key canonical
	}
	key := fmt.Sprintf(
		"sim/v2 cores=%d cap=%d ch=%d rk=%d spt=%g seed=%d per=%d prev=%d slack=%d nrh=%d warm=%d meas=%d wl=%s",
		cfg.Cores, cfg.ChipCapacityGbit, cfg.Channels, cfg.Ranks, cov, cfg.Seed,
		cfg.Policy.Periodic, cfg.Policy.Preventive, cfg.Policy.SlackTRC, cfg.Policy.NRH,
		warmup, measure, strings.Join(wl, ","))
	if cfg.Policy.Mitigation != "" {
		// Suffix only mitigation cells, so every pre-mitigation store
		// entry stays warm.
		key += fmt.Sprintf(" mit=%s mp=%d", cfg.Policy.Mitigation, cfg.Policy.MitigationParam)
	}
	if cfg.Forensics.Enabled {
		// Forensics never perturbs the trajectory, but it adds a summary
		// to the cell payload — suffix only forensics cells so every
		// existing plain-cell store entry stays warm.
		key += fmt.Sprintf(" fx=1 fxrec=%t", cfg.Forensics.Recorder)
	}
	return key
}

// simCell builds the cell that simulates one (config, policy, mix)
// point on lab's checkpoint policy: its pass resumes from the longest
// usable checkpoint at or below the shortest pending horizon and writes
// new checkpoints as it advances, so a warm store answers "same
// trajectory, longer run" by simulating only the delta.
func simCell(lab *Engine, cfg Config, mix workload.SourceMix, warmup, measure int) engine.Cell[CellResult] {
	return engine.Cell[CellResult]{
		Key:     simCellKey(cfg, mix, warmup, measure),
		Group:   simPlanGroup(cfg, mix),
		Horizon: warmup + measure,
		Payload: simPassPayload{cfg: cfg, mix: mix, warmup: warmup, measure: measure},
		Run: func(ctx context.Context, members []engine.Member, emit func(int, CellResult)) error {
			return runSimPass(ctx, lab, members, emit)
		},
	}
}

// simCellResult projects a measured-phase Result onto the cell payload.
func simCellResult(res Result) CellResult {
	return CellResult{
		IPC:        res.IPC,
		Sched:      res.Sched,
		LLCHitRate: res.LLCHitRate,
		Ticks:      res.Ticks,
		Forensics:  res.Forensics,
	}
}

// simPlanGroup names a sim cell's planner group: its trajectory, plus
// the forensics mode. Forensics never perturbs the trajectory, but it
// changes the cell payload, so forensics and plain cells must not share
// one pass.
func simPlanGroup(cfg Config, mix workload.SourceMix) string {
	g := "sim " + trajectoryKey(cfg, mix)
	if cfg.Forensics.Enabled {
		g += fmt.Sprintf(" fx=1 fxrec=%t", cfg.Forensics.Recorder)
	}
	return g
}

// simPassPayload carries one sim cell's inputs to its group's pass.
type simPassPayload struct {
	cfg     Config
	mix     workload.SourceMix
	warmup  int
	measure int
}

// runSimPass simulates a group of same-trajectory cells (one or more)
// as one pass: a single machine resumes from the longest checkpoint at
// or below the group's shortest pending horizon, then walks the sorted
// warmup and measure boundaries, recording marks at warmup boundaries
// and emitting each member's finished row at its total horizon —
// instead of one restore-and-extend round trip per cell. Every emitted
// row is bit-identical to a cold straight-through run of that cell at
// any resume point and any checkpoint cadence: the machine's trajectory
// is deterministic, and measured-phase outputs are differences of
// cumulative counters (see System.resultSince) taken at exactly the
// member's warmup and total ticks.
func runSimPass(ctx context.Context, lab *Engine, members []engine.Member, emit func(int, CellResult)) error {
	first := members[0].Payload.(simPassPayload)
	cfg, mix := first.cfg, first.mix
	snaps := lab.snaps
	if cfg.Forensics.Enabled || cfg.Policy.Mitigation != "" {
		// The forensics ledger is not part of Snapshot/Restore (it would
		// double the snapshot size for an opt-in observer), so a resumed
		// run would under-count; zoo-engine tracker state is not
		// checkpointable (System.Snapshot refuses it). These passes run
		// cold — they still coalesce their horizons.
		snaps = nil
	}
	ck := checkpointer{snaps: snaps, interval: lab.snapInterval, key: trajectoryKey(cfg, mix)}

	// The members share one machine, so the resume point must not
	// overshoot any member's horizon: the shortest pending total bounds
	// the scan (members arrive sorted by ascending horizon).
	minTotal := members[0].Horizon
	var sys *System
	marks := make(map[int]runMark)
	ck.resumeLongest(ctx, minTotal, func(t int, data []byte) bool {
		s, depth, err := ck.restoreChain(cfg, mix, t, data)
		if err != nil || s.Ticks() != t {
			return false
		}
		// Every warmup boundary already behind the candidate must be
		// mark-recoverable, or the candidate is unusable for that member.
		got := make(map[int]runMark)
		for _, mb := range members {
			p := mb.Payload.(simPassPayload)
			if p.warmup >= t {
				continue
			}
			if _, ok := got[p.warmup]; ok {
				continue
			}
			m, ok := ck.loadMark(cfg, p.warmup)
			if !ok {
				return false
			}
			got[p.warmup] = m
		}
		sys, marks = s, got
		ck.lastTick, ck.depth = t, depth
		return true
	})
	if sys == nil {
		var err error
		if sys, err = NewSystem(cfg, mix); err != nil {
			return err
		}
	}

	// Walk every distinct warmup/total boundary ahead of the machine in
	// order, marking and checkpointing warmup boundaries and emitting
	// finished rows at totals. A tick serving both roles is fine: marks
	// and results are pure reads of cumulative state.
	markAt := make(map[int]bool)
	bset := make(map[int]bool)
	for _, mb := range members {
		p := mb.Payload.(simPassPayload)
		markAt[p.warmup] = true
		bset[p.warmup] = true
		bset[p.warmup+p.measure] = true
	}
	bounds := make([]int, 0, len(bset))
	for t := range bset {
		bounds = append(bounds, t)
	}
	sort.Ints(bounds)
	for _, t := range bounds {
		if t < sys.Ticks() {
			continue // a warmup boundary behind the resume point; its mark is loaded
		}
		if err := ck.runTo(ctx, sys, t); err != nil {
			return err
		}
		if markAt[t] {
			if _, ok := marks[t]; !ok {
				marks[t] = sys.mark()
				// Checkpoint the warmup boundary even off the interval
				// grid: future runs resuming past it read the mark's
				// counters from exactly this checkpoint's header.
				ck.save(ctx, sys)
			}
		}
		for i, mb := range members {
			p := mb.Payload.(simPassPayload)
			if p.warmup+p.measure != t {
				continue
			}
			m, ok := marks[p.warmup]
			if !ok {
				return fmt.Errorf("sim: pass reached tick %d without a mark at warmup %d", t, p.warmup)
			}
			ck.save(ctx, sys)
			out := simCellResult(sys.resultSince(m, p.measure))
			lab.sim.observe(out)
			emit(i, out)
		}
	}
	return nil
}

// machine is the tickable state a checkpointer drives: the full System
// and the alone-IPC reference run both implement it.
type machine interface {
	Ticks() int
	RunTo(ctx context.Context, target int) error
	Snapshot() ([]byte, error)
}

// deltaMachine is a machine that can encode a differential checkpoint:
// only the state blocks touched since the previous checkpoint, chained
// to it by base tick. The checkpointer owns the touch epoch — it calls
// ResetTouchedLines exactly when a checkpoint (full or delta) lands, so
// the touched set always means "since the last stored checkpoint".
type deltaMachine interface {
	SnapshotDelta(baseTick, depth int) ([]byte, error)
	ResetTouchedLines()
}

// checkpointer writes and resumes one trajectory's checkpoints.
type checkpointer struct {
	snaps    *engine.SnapStore
	interval int
	key      string

	// Delta-chain epoch: the tick of the last checkpoint this run stored
	// or resumed from (0 = none; deltas diff against it) and how many
	// delta links already sit between it and its full base.
	lastTick int
	depth    int
}

func (ck *checkpointer) enabled() bool { return ck.snaps != nil && ck.interval > 0 }

// resumeLongest scans the trajectory's stored checkpoints descending for
// the longest one at or below horizon that take accepts (restores and
// validates); rejected candidates are skipped, so every failure mode is
// a clean miss, never an error. Exactly one hit (a take accepted, also
// reported through engine.MarkResumed) or one miss is tallied per
// resume attempt, regardless of how many candidates were tried.
func (ck *checkpointer) resumeLongest(ctx context.Context, horizon int, take func(tick int, data []byte) bool) bool {
	if !ck.enabled() {
		return false
	}
	sp := telemetry.StartSpan(ctx, "checkpoint-lookup", ck.key)
	ticks := ck.snaps.Ticks(ck.key)
	for i := len(ticks) - 1; i >= 0; i-- {
		t := ticks[i]
		if t > horizon {
			continue
		}
		data, ok := ck.snaps.Load(ck.key, t)
		if !ok {
			continue
		}
		if take(t, data) {
			ck.snaps.NoteHit()
			ck.snaps.AttributeResim(ck.key, t, horizon)
			engine.MarkResumed(ctx, t)
			sp.SetAttr("hit", true)
			sp.SetAttr("tick", t)
			sp.End()
			return true
		}
	}
	ck.snaps.NoteMiss()
	ck.snaps.AttributeResim(ck.key, 0, horizon)
	sp.SetAttr("hit", false)
	sp.End()
	return false
}

// restoreChain restores the checkpoint stored at tick, following delta
// links down to their full base and replaying them ascending. It
// returns the restored machine and the chain length (0 for a full
// snapshot) — the caller seeds its delta epoch from that, so new deltas
// extend the restored chain instead of restarting its depth count.
func (ck *checkpointer) restoreChain(cfg Config, mix workload.SourceMix, tick int, data []byte) (*System, int, error) {
	var chain [][]byte
	want := tick
	for hasMagic(data, deltaMagic) {
		if len(chain) == maxDeltaChain {
			return nil, 0, fmt.Errorf("sim: delta chain at tick %d exceeds %d links", tick, maxDeltaChain)
		}
		key, t, baseTick, _, err := readDeltaHeader(data)
		if err != nil {
			return nil, 0, err
		}
		if key != ck.key {
			return nil, 0, fmt.Errorf("sim: delta checkpoint carries a foreign trajectory key")
		}
		if t != want {
			return nil, 0, fmt.Errorf("sim: delta checkpoint labeled tick %d, indexed at %d", t, want)
		}
		chain = append(chain, data)
		next, ok := ck.snaps.Load(ck.key, baseTick)
		if !ok {
			return nil, 0, fmt.Errorf("sim: delta base at tick %d missing", baseTick)
		}
		data, want = next, baseTick
	}
	sys, err := RestoreSystem(cfg, mix, data)
	if err != nil {
		return nil, 0, err
	}
	if sys.Ticks() != want {
		return nil, 0, fmt.Errorf("sim: base snapshot at tick %d, indexed at %d", sys.Ticks(), want)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		if err := applySystemDelta(sys, chain[i]); err != nil {
			return nil, 0, err
		}
	}
	return sys, len(chain), nil
}

// loadMark obtains the cumulative counters at the warmup boundary
// straight from the stored checkpoint's header, without decoding the
// machine. A zero warmup needs no checkpoint.
func (ck *checkpointer) loadMark(cfg Config, warmup int) (runMark, bool) {
	if warmup == 0 {
		return zeroMark(cfg.Cores), true
	}
	mdata, ok := ck.snaps.Load(ck.key, warmup)
	if !ok {
		return runMark{}, false
	}
	key, mtick, m, err := readSnapshotMark(mdata, cfg.Cores)
	if err != nil || key != ck.key || mtick != warmup {
		return runMark{}, false
	}
	return m, true
}

// runTo advances m to the target tick, checkpointing every interval
// boundary it crosses. Boundaries are absolute tick multiples, so runs
// with different warmup/measure splits of one trajectory land their
// checkpoints on a shared grid.
func (ck *checkpointer) runTo(ctx context.Context, m machine, target int) error {
	if m.Ticks() >= target {
		return nil
	}
	sp := telemetry.StartSpan(ctx, "simulate", ck.key)
	sp.SetAttr("from", m.Ticks())
	sp.SetAttr("to", target)
	defer sp.End()
	before := m.Ticks()
	defer func() { engine.MarkSimulated(ctx, m.Ticks()-before) }()
	if !ck.enabled() {
		return m.RunTo(ctx, target)
	}
	for m.Ticks() < target {
		next := target
		if b := (m.Ticks()/ck.interval + 1) * ck.interval; b < next {
			next = b
		}
		if err := m.RunTo(ctx, next); err != nil {
			return err
		}
		if next%ck.interval == 0 {
			ck.save(ctx, m)
		}
	}
	return nil
}

// save checkpoints m's current state, best-effort: an encode failure (a
// non-checkpointable custom stream) or store failure only means the next
// run starts colder. When m tracks touched state and a prior checkpoint
// anchors this run, save emits a differential checkpoint chained to it;
// the chain is bounded, so every maxDeltaChain-th save (and any save a
// delta path fails on) is a full snapshot. The touch epoch resets only
// after a checkpoint actually lands, so a skipped or failed save leaves
// the touched set accumulating toward the next successful one.
func (ck *checkpointer) save(ctx context.Context, m machine) {
	if !ck.enabled() || m.Ticks() == 0 {
		return
	}
	tick := m.Ticks()
	if ck.snaps.Has(ck.key, tick) {
		return
	}
	sp := telemetry.StartSpan(ctx, "checkpoint-save", ck.key)
	sp.SetAttr("tick", tick)
	defer sp.End()
	dm, canDelta := m.(deltaMachine)
	if canDelta && ck.lastTick > 0 && ck.lastTick < tick && ck.depth < maxDeltaChain {
		data, err := dm.SnapshotDelta(ck.lastTick, ck.depth+1)
		if err == nil && ck.snaps.SaveDelta(ck.key, tick, ck.lastTick, data) == nil {
			sp.SetAttr("delta", true)
			ck.lastTick, ck.depth = tick, ck.depth+1
			dm.ResetTouchedLines()
			return
		}
		// Fall through: any delta failure (encode, or the store cannot
		// hold the delta without evicting its base chain) degrades to a
		// full snapshot.
	}
	data, err := m.Snapshot()
	if err != nil {
		return
	}
	if ck.snaps.Save(ck.key, tick, data) != nil {
		return
	}
	ck.lastTick, ck.depth = tick, 0
	if canDelta {
		dm.ResetTouchedLines()
	}
}

// alonePassPayload carries one alone cell's inputs to its group's pass.
type alonePassPayload struct {
	src   workload.Source
	seed  uint64
	ticks int
}

// runAlonePass computes a group of same-trajectory alone-IPC references
// (one or more) in one pass: the reference machine resumes once from
// the longest checkpoint at or below the shortest pending horizon, then
// visits each member's tick count ascending, checkpointing and emitting
// the cumulative IPC at every boundary. Alone results are cumulative (no
// warmup mark), so each boundary's value is identical to what a cold run
// stopping there reports. Unlike sim passes, alone passes checkpoint
// only their members' ticks: a single-core reference simulates ticks
// about as fast as a checkpoint encodes, so grid checkpoints would cost
// more than they could ever save, while the final state is exactly what
// horizon extensions resume from.
func runAlonePass(ctx context.Context, lab *Engine, members []engine.Member, emit func(int, CellResult)) error {
	first := members[0].Payload.(alonePassPayload)
	src, seed := first.src, first.seed
	ck := checkpointer{snaps: lab.snaps, interval: lab.snapInterval, key: aloneTrajectoryKey(src, seed)}
	var a *aloneRun
	ck.resumeLongest(ctx, members[0].Horizon, func(t int, data []byte) bool {
		r, err := restoreAloneRun(src, seed, data)
		if err != nil || r.Ticks() != t {
			return false
		}
		a = r
		return true
	})
	if a == nil {
		a = newAloneRun(src, seed)
	}
	for i, mb := range members {
		ticks := mb.Payload.(alonePassPayload).ticks
		if a.Ticks() < ticks {
			sp := telemetry.StartSpan(ctx, "simulate", ck.key)
			sp.SetAttr("from", a.Ticks())
			sp.SetAttr("to", ticks)
			before := a.Ticks()
			err := a.RunTo(ctx, ticks)
			engine.MarkSimulated(ctx, a.Ticks()-before)
			sp.End()
			if err != nil {
				return err
			}
		}
		if a.Ticks() != ticks {
			return fmt.Errorf("sim: alone pass overshot member horizon %d at tick %d", ticks, a.Ticks())
		}
		ck.save(ctx, a)
		emit(i, CellResult{Alone: a.ipc()})
	}
	return nil
}

// aloneCellKey names an alone-IPC reference cell.
func aloneCellKey(src workload.Source, seed uint64, ticks int) string {
	return fmt.Sprintf("alone/v2 wl=%s seed=%d ticks=%d", src.Key(), seed, ticks)
}

// aloneCell builds the cell that computes one workload's alone-IPC
// reference for weighted speedup, resumable under lab's checkpoint
// policy like simCell.
func aloneCell(lab *Engine, src workload.Source, seed uint64, ticks int) engine.Cell[CellResult] {
	return engine.Cell[CellResult]{
		Key:     aloneCellKey(src, seed, ticks),
		Group:   "alone " + aloneTrajectoryKey(src, seed),
		Horizon: ticks,
		Payload: alonePassPayload{src: src, seed: seed, ticks: ticks},
		Run: func(ctx context.Context, members []engine.Member, emit func(int, CellResult)) error {
			return runAlonePass(ctx, lab, members, emit)
		},
	}
}
