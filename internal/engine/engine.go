// Package engine is the parallel experiment engine behind the paper's
// performance sweeps (Figs. 9-16). Every sweep decomposes into cells —
// one deterministic simulation each, addressed by a content key that
// encodes everything the simulation depends on — and the engine executes
// them on a bounded worker pool. Because each cell derives its seeds from
// its own content, a parallel run is bit-identical to a serial run
// regardless of scheduling order.
//
// The engine owns four layers of reuse on top of the pool:
//
//   - batch dedup: duplicate keys submitted in one Run execute once;
//   - cross-request singleflight: concurrent Run batches (e.g. two
//     service clients asking overlapping questions) that need the same
//     cold cell trigger exactly one simulation — late arrivals wait for
//     the in-flight computation instead of repeating it;
//   - an in-memory content-keyed cache, so an engine shared across sweep
//     points (capacities, NRH values, channel counts) never repeats a
//     cell — this subsumes the alone-IPC memoization the sweeps used to
//     hand-roll;
//   - an optional content-addressed result store (ResultDir): sharded
//     directories of JSON cells written atomically via temp-file +
//     rename, indexed once at startup, so re-running a sweep after a
//     crash, or with one new policy, only simulates the delta.
//
// Run takes a context: cancellation (a disconnected client, a server
// shutting down) stops dispatch, interrupts in-flight cells whose Run
// honors the context, and returns ctx.Err(). Cancellation never corrupts
// the store — cells either persisted completely before the cancel or not
// at all.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"hira/internal/fault"
	"hira/internal/telemetry"
)

// Cell is one addressable, schedulable, memoizable unit of work. Every
// cell runs as a member of a pass: cells submitted in one batch with
// equal non-empty Groups (same simulation trajectory, different
// horizons) are coalesced into one pass — a single simulation to the
// group's maximum horizon that emits each member's finished result as it
// crosses that member's horizon — and a cell with an empty Group is a
// one-member pass of its own.
type Cell[R any] struct {
	// Key is the cell's content key: it must encode every input the
	// computation depends on (configuration, policy, workload, seeds,
	// tick counts), because equal keys share one result.
	Key string
	// Group identifies the shared trajectory; empty means the cell is
	// its own group. Cells whose results would not be produced by one
	// continuous run must not share a group.
	Group string
	// Horizon orders members within a group, ascending; it is the tick
	// the member's result is emitted at.
	Horizon int
	// Payload is opaque per-member context handed back to Run.
	Payload any
	// Run executes one pass over members (sorted by ascending Horizon; a
	// subset of the group — members already resolved from the cache or
	// store are excluded). It must be deterministic given the members'
	// keys, must not share mutable state with other passes, and must
	// call emit(i, r) with member i's result when the simulation crosses
	// members[i].Horizon; each emission is cached, persisted, and
	// released to singleflight waiters immediately, so a pass failing
	// (or cancelled) midway keeps every row it already emitted. Long
	// passes should poll ctx and return ctx.Err() to honor cancellation
	// promptly. Every group member's Run must be interchangeable.
	Run func(ctx context.Context, members []Member, emit func(i int, r R)) error
}

// Member is one pending cell of a pass.
type Member struct {
	Key     string
	Horizon int
	Payload any
}

// Stats tallies how an engine resolved the cells submitted to it. For
// batches that complete without error, Submitted = Simulated +
// CacheHits + StoreHits + Deduped; an aborted or cancelled batch leaves
// its unresolved cells counted in Submitted only. Cells served by
// waiting on another batch's in-flight computation count as CacheHits.
type Stats struct {
	Submitted   uint64 `json:"submitted"`    // cells passed to Run batches
	Simulated   uint64 `json:"simulated"`    // cells actually computed
	CacheHits   uint64 `json:"cache_hits"`   // served from the in-memory cache (or an in-flight computation)
	StoreHits   uint64 `json:"store_hits"`   // loaded from the ResultDir store
	Deduped     uint64 `json:"deduped"`      // duplicate keys within a batch
	StoreErrors uint64 `json:"store_errors"` // results that could not be persisted to ResultDir

	// Resumed counts the subset of Simulated cells that restored a
	// checkpoint instead of simulating from tick zero, and ResumedTicks
	// sums the ticks those checkpoints spared — the cells were partially
	// resumed, not fully simulated. Cells report this through
	// MarkResumed. A coalesced pass counts at most one resume, however
	// many cells it emits.
	Resumed      uint64 `json:"resumed"`
	ResumedTicks uint64 `json:"resumed_ticks"`

	// PlannedPasses counts the passes run for groups of two or more of
	// a batch's cells, and PlannedCells the cells those passes emitted;
	// their ratio is the coalescing factor (a lone cell's one-member
	// pass counts in neither). SimulatedTicks accumulates ticks actually
	// stepped by passes (reported via MarkSimulated) — together with
	// ResumedTicks it prices what planning and checkpoints saved.
	PlannedPasses  uint64 `json:"planned_passes"`
	PlannedCells   uint64 `json:"planned_cells"`
	SimulatedTicks uint64 `json:"simulated_ticks"`

	// Panics counts passes whose Run panicked. The engine converts each
	// panic into an ordinary cell error carrying the stack trace — the
	// batch fails, the process survives — and tallies it here so a
	// recovered-from bug is still visible on /metrics.
	Panics uint64 `json:"panics,omitempty"`

	// FirstStoreError describes the first ResultDir write failure, so
	// callers can report why persistence degraded (permissions, full
	// disk, ...), not just that it did.
	FirstStoreError string `json:"first_store_error,omitempty"`
}

// Add accumulates another tally into s.
func (s *Stats) Add(o Stats) {
	s.Submitted += o.Submitted
	s.Simulated += o.Simulated
	s.CacheHits += o.CacheHits
	s.StoreHits += o.StoreHits
	s.Deduped += o.Deduped
	s.StoreErrors += o.StoreErrors
	s.Resumed += o.Resumed
	s.ResumedTicks += o.ResumedTicks
	s.PlannedPasses += o.PlannedPasses
	s.PlannedCells += o.PlannedCells
	s.SimulatedTicks += o.SimulatedTicks
	s.Panics += o.Panics
	if s.FirstStoreError == "" {
		s.FirstStoreError = o.FirstStoreError
	}
}

// resumeNoteKey carries the per-pass resume note through the context
// handed to Cell.Run.
type resumeNoteKey struct{}

// resumeNote is written by the pass (via MarkResumed) and read by the
// engine after Run returns; the pass runs synchronously on one
// goroutine, so no synchronization is needed.
type resumeNote struct {
	resumed   bool
	ticks     int
	simulated uint64
}

// MarkResumed records that the pass running under ctx restored a
// checkpoint covering the first `ticks` simulated ticks instead of
// starting cold. The engine tallies it in Stats.Resumed /
// Stats.ResumedTicks so operators can see sweeps being answered by
// incremental simulation. Outside an engine-run pass it is a no-op.
func MarkResumed(ctx context.Context, ticks int) {
	if n, ok := ctx.Value(resumeNoteKey{}).(*resumeNote); ok {
		n.resumed = true
		n.ticks = ticks
	}
}

// MarkSimulated accumulates `ticks` ticks actually stepped by the pass
// running under ctx, tallied in Stats.SimulatedTicks. Outside an
// engine-run pass it is a no-op.
func MarkSimulated(ctx context.Context, ticks int) {
	if n, ok := ctx.Value(resumeNoteKey{}).(*resumeNote); ok && ticks > 0 {
		n.simulated += uint64(ticks)
	}
}

// Options configures an engine.
type Options struct {
	// Parallelism bounds the number of passes computing at once; <= 0
	// means runtime.NumCPU(). The bound is engine-wide: concurrent Run
	// batches share it rather than multiplying it.
	Parallelism int
	// ResultDir, when non-empty, persists each cell's result as a JSON
	// file named by the SHA-256 of its key (sharded by the first two hex
	// digits), and serves matching cells from disk on later runs. The
	// directory is created if missing and indexed once at construction.
	// Store writes are best-effort: a failed write (disk full,
	// permissions) never discards the computed result — the cell stays
	// in the in-memory cache and the failure is tallied in
	// Stats.StoreErrors / Stats.FirstStoreError.
	ResultDir string
	// FS, when non-nil, routes the result store's file I/O through a
	// fault-injection seam (see internal/fault). nil means the real
	// filesystem; production code never sets it.
	FS fault.FS
	// OnProgress, when set, is the default progress callback for batches
	// that do not supply their own via RunOptions: it is called after
	// each cell of a batch resolves, with the number resolved so far and
	// the batch size, from worker goroutines but never concurrently
	// within one batch.
	OnProgress func(done, total int)
	// Metrics, when non-nil, receives the engine's duration and
	// singleflight observations (see Metrics). Count-style tallies stay
	// in Stats; expose those via RegisterStatsFuncs.
	Metrics *Metrics
}

// RunOptions configures one Run batch on a shared engine.
type RunOptions struct {
	// OnProgress overrides Options.OnProgress for this batch.
	OnProgress func(done, total int)
	// OnProgressStats, when set, supersedes OnProgress: it additionally
	// receives a snapshot of the batch's resolution tally so far, so
	// streaming consumers can report cache hits and resumed ticks while
	// the batch is still running, not just at the end.
	OnProgressStats func(done, total int, batch Stats)
}

// flight is one in-progress cell computation other batches can wait on.
type flight[R any] struct {
	done chan struct{} // closed when r/err are set
	r    R
	err  error
}

// Engine executes cells on a bounded worker pool with a content-keyed
// result cache. It is safe for concurrent use: overlapping Run batches
// share the in-memory cache, the result store, the compute bound, and
// in-flight computations. The zero value is not usable; construct with
// New.
type Engine[R any] struct {
	opts  Options
	store *store[R]     // nil when ResultDir is empty
	sem   chan struct{} // engine-wide compute tokens

	mu       sync.Mutex
	cache    map[string]R
	inflight map[string]*flight[R]
	stats    Stats
}

// New returns an engine for results of type R.
func New[R any](opts Options) *Engine[R] {
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.NumCPU()
	}
	e := &Engine[R]{
		opts:     opts,
		sem:      make(chan struct{}, opts.Parallelism),
		cache:    make(map[string]R),
		inflight: make(map[string]*flight[R]),
	}
	if opts.ResultDir != "" {
		e.store = newStore[R](opts.ResultDir, opts.FS)
	}
	return e
}

// Parallelism reports the engine-wide compute bound.
func (e *Engine[R]) Parallelism() int { return e.opts.Parallelism }

// Stats returns a snapshot of the engine's lifetime resolution tallies,
// accumulated across every batch run on it.
func (e *Engine[R]) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// StoredCells reports how many cell results the on-disk store currently
// indexes (0 without a ResultDir).
func (e *Engine[R]) StoredCells() int {
	if e.store == nil {
		return 0
	}
	return e.store.Len()
}

// StoreDegraded reports whether the result store has flipped into
// cache-only mode (unwritable root at construction, or a run of
// consecutive save failures mid-flight), and why. Always false without
// a ResultDir: an intentionally memory-only engine is not degraded.
func (e *Engine[R]) StoreDegraded() (string, bool) {
	if e.store == nil {
		return "", false
	}
	return e.store.degradedReason()
}

// Run resolves every cell and returns results in submission order, plus
// this batch's resolution tally. Duplicate keys within the batch compute
// once; previously resolved keys are served from the cache (or the
// ResultDir store) without running; keys another concurrent batch is
// already computing are waited on, not recomputed. The first cell error
// aborts the batch; ctx cancellation aborts it with ctx.Err().
func (e *Engine[R]) Run(ctx context.Context, cells []Cell[R]) ([]R, Stats, error) {
	return e.RunWith(ctx, cells, RunOptions{})
}

// RunWith is Run with per-batch options.
func (e *Engine[R]) RunWith(ctx context.Context, cells []Cell[R], ropts RunOptions) ([]R, Stats, error) {
	onProgress := ropts.OnProgress
	if onProgress == nil {
		onProgress = e.opts.OnProgress
	}
	onProgressStats := ropts.OnProgressStats
	results := make([]R, len(cells))

	// Collapse the batch to unique keys, remembering every position each
	// key must fill.
	order := make([]string, 0, len(cells))
	positions := make(map[string][]int, len(cells))
	rep := make(map[string]Cell[R], len(cells))
	for i, c := range cells {
		if c.Run == nil {
			return nil, Stats{}, fmt.Errorf("engine: cell %d (%q) has no Run", i, c.Key)
		}
		if _, ok := positions[c.Key]; !ok {
			order = append(order, c.Key)
			rep[c.Key] = c
		}
		positions[c.Key] = append(positions[c.Key], i)
	}

	b := &batch{}
	b.stats.Submitted = uint64(len(cells))
	b.stats.Deduped = uint64(len(cells) - len(order))

	// Sweep planning: partition the unique keys into dispatch units, one
	// per group (a cell with an empty Group is a group of its own), its
	// members ordered by ascending horizon so the pass emits them as it
	// advances. Units keep the groups' first-appearance order.
	units := make([][]string, 0, len(order))
	groupIdx := make(map[string]int)
	for _, key := range order {
		g := rep[key].Group
		if gi, ok := groupIdx[g]; ok {
			units[gi] = append(units[gi], key)
			continue
		}
		if g != "" {
			groupIdx[g] = len(units)
		}
		units = append(units, []string{key})
	}
	for _, u := range units {
		if len(u) > 1 {
			sort.SliceStable(u, func(i, j int) bool {
				return rep[u[i]].Horizon < rep[u[j]].Horizon
			})
		}
	}

	progress := func(resolved int) {
		if onProgress == nil && onProgressStats == nil {
			return
		}
		b.mu.Lock()
		b.done += resolved
		if onProgressStats != nil {
			onProgressStats(b.done, len(cells), b.stats)
		} else {
			onProgress(b.done, len(cells))
		}
		b.mu.Unlock()
	}

	workers := e.opts.Parallelism
	if workers > len(units) {
		workers = len(units)
	}
	jobs := make(chan []string)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for unit := range jobs {
				if b.abortedOrDone(ctx) {
					continue
				}
				e.resolveGroup(ctx, unit, rep, positions, results, b, progress)
			}
		}()
	}
dispatch:
	for _, unit := range units {
		select {
		case jobs <- unit:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()

	b.mu.Lock()
	err := b.firstErr
	stats := b.stats
	b.mu.Unlock()
	if err == nil {
		err = ctx.Err()
	}

	e.mu.Lock()
	e.stats.Add(stats)
	e.mu.Unlock()

	if err != nil {
		return nil, stats, err
	}
	return results, stats, nil
}

// batch carries one Run invocation's shared mutable state.
type batch struct {
	mu       sync.Mutex
	stats    Stats
	firstErr error
	done     int // progress counter
}

func (b *batch) fail(err error) {
	b.mu.Lock()
	if b.firstErr == nil {
		b.firstErr = err
	}
	b.mu.Unlock()
}

func (b *batch) abortedOrDone(ctx context.Context) bool {
	if ctx.Err() != nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.firstErr != nil
}

func (b *batch) bump(f func(*Stats)) {
	b.mu.Lock()
	f(&b.stats)
	b.mu.Unlock()
}

// saveResult persists one result to the store, best-effort: a failed
// write (disk full, permissions) never discards the computed result —
// the cell stays in the in-memory cache and the failure is tallied.
func (e *Engine[R]) saveResult(ctx context.Context, key string, r R, b *batch) {
	m := e.opts.Metrics
	wrSpan := telemetry.StartSpan(ctx, "store-write", key)
	wrStart := time.Now()
	_, err := e.store.save(key, r)
	if m != nil {
		m.StoreWriteSeconds.Observe(time.Since(wrStart).Seconds())
	}
	wrSpan.End()
	if err != nil {
		b.bump(func(s *Stats) {
			s.StoreErrors++
			if s.FirstStoreError == "" {
				s.FirstStoreError = err.Error()
			}
		})
	}
}

// resolveGroup resolves a unit's cells (ascending horizon) as one pass:
// members already cached are served as cache hits, members in flight in
// another batch are waited on, claimed members are checked against the
// store, and only what remains is simulated — by a single Run to the
// maximum pending horizon. Every emitted result is cached, persisted,
// and released to singleflight waiters immediately; on error or
// cancellation, cells emitted before the failure stay resolved (warm
// for the retry) and only the unemitted members' flights carry the
// error.
func (e *Engine[R]) resolveGroup(ctx context.Context, keys []string, rep map[string]Cell[R],
	positions map[string][]int, results []R, b *batch, progress func(int)) {
	serve := func(key string, r R) {
		for _, i := range positions[key] {
			results[i] = r
		}
		progress(len(positions[key]))
	}

	cached := make(map[string]R)
	flights := make(map[string]*flight[R])
	var deferred, claimed []string
	e.mu.Lock()
	for _, key := range keys {
		if r, ok := e.cache[key]; ok {
			cached[key] = r
			continue
		}
		if f, ok := e.inflight[key]; ok {
			flights[key] = f
			deferred = append(deferred, key)
			continue
		}
		f := &flight[R]{done: make(chan struct{})}
		e.inflight[key] = f
		flights[key] = f
		claimed = append(claimed, key)
	}
	e.mu.Unlock()
	for _, key := range keys {
		if r, ok := cached[key]; ok {
			b.bump(func(s *Stats) { s.CacheHits++ })
			serve(key, r)
		}
	}

	// Claimed members may still be on disk from an earlier process; only
	// what the store cannot answer joins the pass.
	pass := claimed[:0]
	for _, key := range claimed {
		if e.store != nil {
			sp := telemetry.StartSpan(ctx, "store-read", key)
			r, ok := e.store.load(key)
			sp.SetAttr("hit", ok)
			sp.End()
			if ok {
				e.mu.Lock()
				e.cache[key] = r
				delete(e.inflight, key)
				e.mu.Unlock()
				f := flights[key]
				f.r = r
				close(f.done)
				b.bump(func(s *Stats) { s.StoreHits++ })
				serve(key, r)
				continue
			}
		}
		pass = append(pass, key)
	}

	if len(pass) > 0 {
		e.runPass(ctx, pass, len(keys) > 1, rep, flights, b, serve)
	}

	// Members another batch was computing when the pass was formed: wait
	// on them, and claim any whose owner failed (its error is not ours)
	// as a one-member unit.
	for _, key := range deferred {
		if b.abortedOrDone(ctx) {
			return
		}
		if m := e.opts.Metrics; m != nil {
			m.SingleflightWaits.Inc()
		}
		f := flights[key]
		sp := telemetry.StartSpan(ctx, "singleflight-wait", key)
		select {
		case <-f.done:
			sp.End()
		case <-ctx.Done():
			sp.End()
			b.fail(ctx.Err())
			return
		}
		if f.err != nil {
			e.resolveGroup(ctx, []string{key}, rep, positions, results, b, progress)
			continue
		}
		b.bump(func(s *Stats) { s.CacheHits++ })
		serve(key, f.r)
	}
}

// runPass executes one pass over the pending members, whose flights the
// caller has already claimed, under one engine-wide compute token.
// planned marks a pass formed from two or more of the batch's cells; only
// those count toward Stats.PlannedPasses and Stats.PlannedCells.
func (e *Engine[R]) runPass(ctx context.Context, pass []string, planned bool, rep map[string]Cell[R],
	flights map[string]*flight[R], b *batch, serve func(string, R)) {
	m := e.opts.Metrics
	group := rep[pass[0]].Group
	if group == "" {
		group = pass[0]
	}
	members := make([]Member, len(pass))
	for i, key := range pass {
		c := rep[key]
		members[i] = Member{Key: key, Horizon: c.Horizon, Payload: c.Payload}
	}

	failRest := func(err error, emitted []bool) {
		for i, key := range pass {
			if emitted != nil && emitted[i] {
				continue
			}
			f := flights[key]
			f.err = err
			e.mu.Lock()
			delete(e.inflight, key)
			e.mu.Unlock()
			close(f.done)
		}
		b.fail(err)
	}

	semStart := time.Now()
	semSpan := telemetry.StartSpan(ctx, "sem-wait", group)
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		semSpan.End()
		failRest(ctx.Err(), nil)
		return
	}
	semSpan.End()
	if m != nil {
		m.SemWaitSeconds.Observe(time.Since(semStart).Seconds())
	}

	note := &resumeNote{}
	emitted := make([]bool, len(members))
	nEmitted := 0
	runStart := time.Now()
	runSpan := telemetry.StartSpan(ctx, "pass", group)
	runSpan.SetAttr("members", len(members))
	emit := func(i int, r R) {
		if i < 0 || i >= len(members) || emitted[i] {
			panic(fmt.Sprintf("engine: pass %q emitted invalid or duplicate member %d", group, i))
		}
		emitted[i] = true
		nEmitted++
		key := members[i].Key
		e.mu.Lock()
		e.cache[key] = r
		delete(e.inflight, key)
		e.mu.Unlock()
		f := flights[key]
		f.r = r
		close(f.done)
		b.bump(func(s *Stats) {
			s.Simulated++
			if planned {
				s.PlannedCells++
			}
		})
		if e.store != nil {
			e.saveResult(ctx, key, r, b)
		}
		serve(key, r)
	}
	// A panicking pass must not take down the worker pool (and with it
	// the whole server): convert the panic into an ordinary error
	// carrying the stack, so exactly this batch fails, attributably.
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				b.bump(func(s *Stats) { s.Panics++ })
				err = fmt.Errorf("engine: pass %q panicked: %v\n%s", group, p, debug.Stack())
			}
		}()
		return rep[pass[0]].Run(context.WithValue(ctx, resumeNoteKey{}, note), members, emit)
	}()
	if note.resumed {
		runSpan.SetAttr("resumed_ticks", note.ticks)
	}
	runSpan.End()
	<-e.sem
	if err == nil && nEmitted < len(members) {
		err = fmt.Errorf("engine: pass %q emitted %d of %d members", group, nEmitted, len(members))
	}
	b.bump(func(s *Stats) {
		if planned {
			s.PlannedPasses++
		}
		s.SimulatedTicks += note.simulated
		if note.resumed {
			s.Resumed++
			s.ResumedTicks += uint64(note.ticks)
		}
	})
	if m != nil {
		m.CellSeconds.Observe(time.Since(runStart).Seconds())
	}
	if err != nil {
		failRest(err, emitted)
	}
}
