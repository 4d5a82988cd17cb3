package engine

import (
	"hira/internal/telemetry"
)

// Metrics is the engine's hot-path instrumentation: the histograms and
// counters that cannot be derived from Stats() at scrape time because
// they observe durations or events Stats does not tally. All fields are
// nil-safe telemetry instruments, so a nil *Metrics (or a Metrics with
// unset fields) costs the engine one branch per cell phase.
//
// Count-style tallies (cells simulated / cache hits / resumed ticks /
// ...) are deliberately NOT duplicated here — expose them with
// telemetry CounterFuncs over Engine.Stats(), which samples the
// authoritative tally at scrape time and can never drift from it.
type Metrics struct {
	// CellSeconds observes the wall time of each pass, which is one
	// simulated cell unless the planner coalesced several (cache and
	// store hits are not observed — they answer in microseconds and
	// would drown the simulate distribution).
	CellSeconds *telemetry.Histogram
	// SemWaitSeconds observes how long each pass waited for an
	// engine-wide compute token: the queue-ahead-of-simulation signal
	// that says whether Parallelism, not the machine, bounds throughput.
	SemWaitSeconds *telemetry.Histogram
	// StoreWriteSeconds observes result-store persists.
	StoreWriteSeconds *telemetry.Histogram
	// SingleflightWaits counts cells served by waiting on another
	// batch's in-flight computation (they tally as CacheHits in Stats;
	// this separates "already cached" from "deduped against a
	// concurrent job").
	SingleflightWaits *telemetry.Counter
}

// NewMetrics registers the engine's instruments on r (nil r returns a
// Metrics whose instruments are all no-ops).
func NewMetrics(r *telemetry.Registry) *Metrics {
	return &Metrics{
		CellSeconds: r.Histogram("hira_engine_cell_seconds",
			"Wall time per simulated cell (cache/store hits excluded).", nil),
		SemWaitSeconds: r.Histogram("hira_engine_semaphore_wait_seconds",
			"Time each computed cell waited for an engine compute token.", nil),
		StoreWriteSeconds: r.Histogram("hira_engine_store_write_seconds",
			"Time spent persisting cell results to the store.", nil),
		SingleflightWaits: r.Counter("hira_engine_singleflight_waits_total",
			"Cells served by waiting on another batch's in-flight computation."),
	}
}

// RegisterStatsFuncs exposes an engine's lifetime Stats tallies as
// scrape-time counters on r, under the hira_engine_cells family names.
// stats is sampled per scrape, so the counters are exactly as
// authoritative as Engine.Stats() and add zero hot-path cost.
func RegisterStatsFuncs(r *telemetry.Registry, stats func() Stats) {
	if r == nil {
		return
	}
	counter := func(name, help string, pick func(Stats) uint64) {
		r.CounterFunc(name, help, func() float64 { return float64(pick(stats())) })
	}
	counter("hira_engine_cells_submitted_total", "Cells passed to engine Run batches.",
		func(s Stats) uint64 { return s.Submitted })
	counter("hira_engine_cells_simulated_total", "Cells actually computed.",
		func(s Stats) uint64 { return s.Simulated })
	counter("hira_engine_cells_cache_hits_total", "Cells served from the in-memory cache or an in-flight computation.",
		func(s Stats) uint64 { return s.CacheHits })
	counter("hira_engine_cells_store_hits_total", "Cells loaded from the result store.",
		func(s Stats) uint64 { return s.StoreHits })
	counter("hira_engine_cells_deduped_total", "Duplicate keys collapsed within batches.",
		func(s Stats) uint64 { return s.Deduped })
	counter("hira_engine_cells_resumed_total", "Simulated cells that restored a checkpoint instead of starting cold.",
		func(s Stats) uint64 { return s.Resumed })
	counter("hira_engine_resumed_ticks_total", "Simulation ticks spared by checkpoint resumes.",
		func(s Stats) uint64 { return s.ResumedTicks })
	counter("hira_engine_store_errors_total", "Cell results that could not be persisted.",
		func(s Stats) uint64 { return s.StoreErrors })
	counter("hira_engine_planned_passes_total", "Coalesced sweep-planner passes executed.",
		func(s Stats) uint64 { return s.PlannedPasses })
	counter("hira_engine_planned_cells_total", "Cells resolved by coalesced planner passes.",
		func(s Stats) uint64 { return s.PlannedCells })
	counter("hira_engine_simulated_ticks_total", "Machine ticks actually simulated by cell runners.",
		func(s Stats) uint64 { return s.SimulatedTicks })
}

// RegisterSnapStoreFuncs exposes a SnapStore's tallies as scrape-time
// metrics on r: the save/load/evict counters plus the cache-economics
// pair — ghost hits and eviction-attributed re-simulated ticks — that
// say what the byte cap actually costs (see SnapStats).
func RegisterSnapStoreFuncs(r *telemetry.Registry, stats func() SnapStats) {
	if r == nil {
		return
	}
	counter := func(name, help string, pick func(SnapStats) float64) {
		r.CounterFunc(name, help, func() float64 { return pick(stats()) })
	}
	counter("hira_snapstore_hits_total", "Resume attempts that restored a usable checkpoint.",
		func(s SnapStats) float64 { return float64(s.Hits) })
	counter("hira_snapstore_misses_total", "Resume attempts that found nothing usable.",
		func(s SnapStats) float64 { return float64(s.Misses) })
	counter("hira_snapstore_loads_total", "Checkpoint payload reads served.",
		func(s SnapStats) float64 { return float64(s.Loads) })
	counter("hira_snapstore_saves_total", "Checkpoints written.",
		func(s SnapStats) float64 { return float64(s.Saves) })
	counter("hira_snapstore_save_errors_total", "Checkpoint writes that failed.",
		func(s SnapStats) float64 { return float64(s.SaveErrors) })
	counter("hira_snapstore_evictions_total", "Checkpoints dropped by the byte cap.",
		func(s SnapStats) float64 { return float64(s.Evictions) })
	counter("hira_snapstore_ghost_hits_total", "Resume attempts that would have resumed further but for a prior eviction.",
		func(s SnapStats) float64 { return float64(s.GhostHits) })
	counter("hira_snapstore_eviction_resim_ticks_total", "Simulation ticks re-simulated because the covering checkpoint was evicted.",
		func(s SnapStats) float64 { return float64(s.EvictionResimTicks) })
	counter("hira_snapstore_delta_saves_total", "Differential checkpoints written (also counted in saves).",
		func(s SnapStats) float64 { return float64(s.DeltaSaves) })
	counter("hira_snapstore_delta_bytes_total", "Payload bytes written as differential checkpoints.",
		func(s SnapStats) float64 { return float64(s.DeltaBytes) })
	r.GaugeFunc("hira_snapstore_bytes", "Current checkpoint payload bytes.",
		func() float64 { return float64(stats().Bytes) })
	r.GaugeFunc("hira_snapstore_entries", "Current checkpoint count.",
		func() float64 { return float64(stats().Entries) })
}
