package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hira/internal/telemetry"
)

// single builds a lone cell: a one-member pass that emits run's result.
func single[R any](key string, run func(context.Context) (R, error)) Cell[R] {
	return Cell[R]{Key: key, Run: func(ctx context.Context, _ []Member, emit func(int, R)) error {
		r, err := run(ctx)
		if err != nil {
			return err
		}
		emit(0, r)
		return nil
	}}
}

// countingCell returns a cell whose Run increments runs and returns v.
func countingCell(key string, v int, runs *atomic.Int64) Cell[int] {
	return single(key, func(context.Context) (int, error) {
		runs.Add(1)
		return v, nil
	})
}

func TestRunPreservesOrder(t *testing.T) {
	e := New[int](Options{Parallelism: 4})
	var runs atomic.Int64
	var cells []Cell[int]
	for i := 0; i < 100; i++ {
		cells = append(cells, countingCell(fmt.Sprintf("c%d", i), i*i, &runs))
	}
	got, _, err := e.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result %d = %d, want %d", i, v, i*i)
		}
	}
	if runs.Load() != 100 {
		t.Errorf("ran %d cells, want 100", runs.Load())
	}
}

func TestBatchDedup(t *testing.T) {
	e := New[int](Options{Parallelism: 8})
	var runs atomic.Int64
	var cells []Cell[int]
	for i := 0; i < 40; i++ {
		cells = append(cells, countingCell(fmt.Sprintf("c%d", i%4), (i%4)*10, &runs))
	}
	got, batch, err := e.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != (i%4)*10 {
			t.Fatalf("result %d = %d, want %d", i, v, (i%4)*10)
		}
	}
	if runs.Load() != 4 {
		t.Errorf("ran %d cells, want 4", runs.Load())
	}
	if batch.Submitted != 40 || batch.Simulated != 4 || batch.Deduped != 36 {
		t.Errorf("batch stats = %+v, want 40 submitted / 4 simulated / 36 deduped", batch)
	}
	if s := e.Stats(); s != batch {
		t.Errorf("engine lifetime stats %+v != sole batch stats %+v", s, batch)
	}
}

func TestCacheAcrossBatches(t *testing.T) {
	e := New[int](Options{Parallelism: 2})
	var runs atomic.Int64
	cells := []Cell[int]{countingCell("a", 1, &runs), countingCell("b", 2, &runs)}
	if _, _, err := e.Run(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	_, warm, err := e.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 2 {
		t.Errorf("ran %d cells across two batches, want 2", runs.Load())
	}
	if warm.CacheHits != 2 || warm.Simulated != 0 {
		t.Errorf("warm batch stats = %+v, want 2 cache hits / 0 simulated", warm)
	}
	if s := e.Stats(); s.CacheHits != 2 || s.Simulated != 2 {
		t.Errorf("lifetime stats = %+v, want 2 cache hits and 2 simulated", s)
	}
}

func TestErrorAbortsBatch(t *testing.T) {
	e := New[int](Options{Parallelism: 2})
	boom := errors.New("boom")
	cells := []Cell[int]{
		single("ok", func(context.Context) (int, error) { return 1, nil }),
		single("bad", func(context.Context) (int, error) { return 0, boom }),
	}
	if _, _, err := e.Run(context.Background(), cells); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if _, _, err := e.Run(context.Background(), []Cell[int]{{Key: "nil-run"}}); err == nil {
		t.Fatal("accepted cell without Run")
	}
}

func TestFailedCellNotCached(t *testing.T) {
	e := New[int](Options{Parallelism: 1})
	calls := 0
	flaky := single("flaky", func(context.Context) (int, error) {
		calls++
		if calls == 1 {
			return 0, errors.New("transient")
		}
		return 9, nil
	})
	if _, _, err := e.Run(context.Background(), []Cell[int]{flaky}); err == nil {
		t.Fatal("first run should fail")
	}
	got, _, err := e.Run(context.Background(), []Cell[int]{flaky})
	if err != nil || got[0] != 9 {
		t.Fatalf("retry after failure: got %v, err %v", got, err)
	}
}

func TestProgressReachesTotal(t *testing.T) {
	var last, calls int
	e := New[int](Options{Parallelism: 4, OnProgress: func(done, total int) {
		if done <= last || done > total {
			t.Errorf("progress went %d -> %d of %d", last, done, total)
		}
		last = done
		calls++
	}})
	var runs atomic.Int64
	var cells []Cell[int]
	for i := 0; i < 9; i++ {
		cells = append(cells, countingCell(fmt.Sprintf("c%d", i%3), i%3, &runs))
	}
	if _, _, err := e.Run(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	if last != 9 {
		t.Errorf("final progress = %d, want 9", last)
	}
	if calls != 3 {
		t.Errorf("progress calls = %d, want 3 (one per unique key)", calls)
	}
}

func TestPerBatchProgressOverride(t *testing.T) {
	e := New[int](Options{Parallelism: 2, OnProgress: func(done, total int) {
		t.Error("engine-level progress called despite per-batch override")
	}})
	var runs atomic.Int64
	var got int
	_, _, err := e.RunWith(context.Background(),
		[]Cell[int]{countingCell("a", 1, &runs), countingCell("b", 2, &runs)},
		RunOptions{OnProgress: func(done, total int) { got = done }})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("per-batch progress reached %d, want 2", got)
	}
}

func TestDefaultParallelism(t *testing.T) {
	if p := New[int](Options{}).Parallelism(); p < 1 {
		t.Errorf("default parallelism = %d", p)
	}
}

// TestSingleflightAcrossBatches asserts the service-critical contract:
// two concurrent batches needing the same cold cell trigger exactly one
// computation, with the late batch served from the in-flight result.
func TestSingleflightAcrossBatches(t *testing.T) {
	e := New[int](Options{Parallelism: 4})
	var runs atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	slow := single("shared", func(context.Context) (int, error) {
		runs.Add(1)
		once.Do(func() { close(entered) })
		<-release
		return 77, nil
	})

	type out struct {
		r     []int
		stats Stats
		err   error
	}
	results := make(chan out, 2)
	go func() {
		r, s, err := e.Run(context.Background(), []Cell[int]{slow})
		results <- out{r, s, err}
	}()
	<-entered // first batch is computing
	go func() {
		r, s, err := e.Run(context.Background(), []Cell[int]{slow})
		results <- out{r, s, err}
	}()
	// Give the second batch a moment to reach the inflight wait, then
	// let the computation finish. Even if it has not arrived yet, it can
	// only see the cache afterwards — never a second computation.
	close(release)

	var simulated, cacheHits uint64
	for i := 0; i < 2; i++ {
		o := <-results
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.r[0] != 77 {
			t.Fatalf("batch result = %d, want 77", o.r[0])
		}
		simulated += o.stats.Simulated
		cacheHits += o.stats.CacheHits
	}
	if runs.Load() != 1 {
		t.Fatalf("cell ran %d times across concurrent batches, want 1", runs.Load())
	}
	if simulated != 1 || cacheHits != 1 {
		t.Errorf("batch tallies: %d simulated / %d cache hits, want 1 / 1", simulated, cacheHits)
	}
}

// TestSingleflightFailureHandsOff asserts a waiter does not inherit the
// computing batch's cancellation: it claims the key and computes it as a
// one-member pass. The waiting batch submits the key either alone or
// grouped with a second member; grouped, the key is deferred while in
// flight, the other member's pass runs without it, and the hand-off is
// its own one-member pass afterwards.
func TestSingleflightFailureHandsOff(t *testing.T) {
	for _, group := range []string{"", "traj"} {
		t.Run("group="+group, func(t *testing.T) {
			m := NewMetrics(telemetry.NewRegistry())
			e := New[int](Options{Parallelism: 4, Metrics: m})
			entered := make(chan struct{})
			ctx1, cancel1 := context.WithCancel(context.Background())
			defer cancel1()
			var calls atomic.Int64
			var mu sync.Mutex
			var passes [][]string
			run := func(ctx context.Context, members []Member, emit func(int, int)) error {
				var keys []string
				for _, mb := range members {
					keys = append(keys, mb.Key)
				}
				mu.Lock()
				passes = append(passes, keys)
				mu.Unlock()
				for i, mb := range members {
					if mb.Key == "k" && calls.Add(1) == 1 {
						// First computation: a long simulation interrupted
						// by its batch's cancellation.
						close(entered)
						<-ctx.Done()
						return ctx.Err()
					}
					emit(i, mb.Horizon)
				}
				return nil
			}
			k := Cell[int]{Key: "k", Group: group, Horizon: 5, Run: run}
			second := []Cell[int]{k}
			if group != "" {
				second = append(second, Cell[int]{Key: "k2", Group: group, Horizon: 9, Run: run})
			}

			firstDone := make(chan error, 1)
			go func() {
				_, _, err := e.Run(ctx1, []Cell[int]{k})
				firstDone <- err
			}()
			<-entered
			type out struct {
				r     []int
				stats Stats
				err   error
			}
			secondDone := make(chan out, 1)
			go func() {
				r, s, err := e.Run(context.Background(), second)
				secondDone <- out{r, s, err}
			}()
			for m.SingleflightWaits.Value() == 0 {
				time.Sleep(time.Millisecond) // until the second batch waits on k
			}
			cancel1() // first batch's cell observes cancellation and fails
			if err := <-firstDone; !errors.Is(err, context.Canceled) {
				t.Fatalf("first batch err = %v, want context.Canceled", err)
			}

			// The second batch must not be poisoned by the first's
			// cancellation.
			o := <-secondDone
			if o.err != nil {
				t.Fatal(o.err)
			}
			want := []int{5, 9}[:len(second)]
			if !reflect.DeepEqual(o.r, want) || o.stats.Simulated != uint64(len(second)) {
				t.Errorf("handed-off batch: got %v (stats %+v), want %v all simulated", o.r, o.stats, want)
			}
			if last := passes[len(passes)-1]; !reflect.DeepEqual(last, []string{"k"}) {
				t.Errorf("hand-off ran as pass %v, want the one-member pass [k]", last)
			}
			// Only the pass formed from the two-cell unit counts as
			// planned; the hand-off is a lone cell's pass.
			if wantPlanned := uint64(len(second) - 1); o.stats.PlannedPasses != wantPlanned || o.stats.PlannedCells != wantPlanned {
				t.Errorf("planned tallies %+v, want %d pass and %d cell", o.stats, wantPlanned, wantPlanned)
			}
		})
	}
}

// TestCancelledRunReturnsCtxErr asserts in-flight cells observe the
// context and the batch reports ctx.Err().
func TestCancelledRunReturnsCtxErr(t *testing.T) {
	e := New[int](Options{Parallelism: 2})
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	var cells []Cell[int]
	for i := 0; i < 8; i++ {
		cells = append(cells, single(fmt.Sprintf("c%d", i), func(ctx context.Context) (int, error) {
			once.Do(func() { close(started) })
			<-ctx.Done() // a long simulation polling its context
			return 0, ctx.Err()
		}))
	}
	go func() {
		<-started
		cancel()
	}()
	if _, _, err := e.Run(ctx, cells); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestPreCancelledRunDoesNothing(t *testing.T) {
	e := New[int](Options{Parallelism: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var runs atomic.Int64
	if _, _, err := e.Run(ctx, []Cell[int]{countingCell("a", 1, &runs)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if runs.Load() != 0 {
		t.Errorf("pre-cancelled run computed %d cells", runs.Load())
	}
}

// storeFiles returns every persisted cell file under a sharded store.
func storeFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "??", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestStoreRoundTrip(t *testing.T) {
	type payload struct {
		X []float64 `json:"x"`
		N int       `json:"n"`
	}
	dir := t.TempDir()
	var runs atomic.Int64
	cell := single("sweep/cap=8", func(context.Context) (payload, error) {
		runs.Add(1)
		return payload{X: []float64{1.5, 2.5}, N: 7}, nil
	})

	e1 := New[payload](Options{Parallelism: 1, ResultDir: dir})
	first, _, err := e1.Run(context.Background(), []Cell[payload]{cell})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(storeFiles(t, dir)); n != 1 {
		t.Fatalf("store has %d sharded cell files, want 1", n)
	}

	// A fresh engine with the same store must index and serve the cell
	// from disk.
	e2 := New[payload](Options{Parallelism: 1, ResultDir: dir})
	if got := e2.StoredCells(); got != 1 {
		t.Fatalf("startup index found %d cells, want 1", got)
	}
	second, warm, err := e2.Run(context.Background(), []Cell[payload]{cell})
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Errorf("ran %d times, want 1 (store hit)", runs.Load())
	}
	if warm.StoreHits != 1 || warm.Simulated != 0 {
		t.Errorf("stats = %+v, want 1 store hit and 0 simulated", warm)
	}
	if second[0].N != first[0].N || second[0].X[0] != first[0].X[0] || second[0].X[1] != first[0].X[1] {
		t.Errorf("store round-trip changed result: %+v vs %+v", second[0], first[0])
	}
}

// TestStoreTruncatedCellResimulates is the crash-hardening regression
// test: a cell file truncated mid-write (simulating a crash without the
// atomic rename) must read as a miss on a warm re-run, re-simulate, and
// be healed in place.
func TestStoreTruncatedCellResimulates(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int64
	cell := countingCell("k", 42, &runs)

	e := New[int](Options{Parallelism: 1, ResultDir: dir})
	if _, _, err := e.Run(context.Background(), []Cell[int]{cell}); err != nil {
		t.Fatal(err)
	}
	files := storeFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("store has %d files, want 1", len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	// Warm re-run on a fresh engine over the same store: the truncated
	// cell is a miss, not an error, and gets rewritten intact.
	e2 := New[int](Options{Parallelism: 1, ResultDir: dir})
	got, stats, err := e2.Run(context.Background(), []Cell[int]{cell})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 || runs.Load() != 2 {
		t.Errorf("truncated cell not re-simulated: got %d after %d runs", got[0], runs.Load())
	}
	if stats.Simulated != 1 || stats.StoreHits != 0 {
		t.Errorf("stats = %+v, want 1 simulated / 0 store hits", stats)
	}
	e3 := New[int](Options{Parallelism: 1, ResultDir: dir})
	if _, healed, err := e3.Run(context.Background(), []Cell[int]{cell}); err != nil || healed.StoreHits != 1 {
		t.Errorf("store not healed after re-simulation: stats %+v, err %v", healed, err)
	}
}

func TestStoreCorruptFileResimulates(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int64
	cell := countingCell("k", 42, &runs)

	e := New[int](Options{Parallelism: 1, ResultDir: dir})
	if _, _, err := e.Run(context.Background(), []Cell[int]{cell}); err != nil {
		t.Fatal(err)
	}
	files := storeFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("store has %d files, want 1", len(files))
	}
	if err := os.WriteFile(files[0], []byte("{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := New[int](Options{Parallelism: 1, ResultDir: dir})
	got, _, err := e2.Run(context.Background(), []Cell[int]{cell})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 || runs.Load() != 2 {
		t.Errorf("corrupt store file not re-simulated: got %d after %d runs", got[0], runs.Load())
	}
}

func TestStoreWriteFailureKeepsResult(t *testing.T) {
	// A ResultDir that cannot be created: parent is a plain file. The
	// store detects this at construction and flips into cache-only mode
	// — jobs still succeed, served from the memory cache, and the
	// degradation is reported once via StoreDegraded rather than as a
	// per-cell StoreErrors tally.
	parent := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(parent, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	e := New[int](Options{Parallelism: 1, ResultDir: filepath.Join(parent, "store")})
	if why, bad := e.StoreDegraded(); !bad || why == "" {
		t.Fatalf("StoreDegraded = (%q, %v), want degraded with a reason", why, bad)
	}
	var runs atomic.Int64
	got, stats, err := e.Run(context.Background(), []Cell[int]{countingCell("k", 7, &runs)})
	if err != nil {
		t.Fatalf("unusable store root aborted the batch: %v", err)
	}
	if got[0] != 7 {
		t.Errorf("result = %d, want 7", got[0])
	}
	if stats.Simulated != 1 || stats.StoreErrors != 0 {
		t.Errorf("stats = %+v, want 1 simulated and no per-cell store errors in degraded mode", stats)
	}
	// The result survived in the memory cache.
	if _, _, err := e.Run(context.Background(), []Cell[int]{countingCell("k", 7, &runs)}); err != nil || runs.Load() != 1 {
		t.Errorf("computed result not served from cache after store failure (runs=%d, err=%v)", runs.Load(), err)
	}
}

// TestStoreIgnoresForeignFiles asserts the index only trusts the sharded
// layout: stray files in the root (such as cells of the pre-sharding
// flat layout) neither crash startup nor get served.
func TestStoreIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "deadbeef.json"), []byte(`{"key":"k","result":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// An intact, checksummed cell where the flat layout kept it.
	flat := fmt.Sprintf(`{"key":"k","sum":%q,"result":1}`, sumBytes([]byte("1")))
	if err := os.WriteFile(filepath.Join(dir, hashKey("k")+".json"), []byte(flat), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "not-a-shard"), 0o755); err != nil {
		t.Fatal(err)
	}
	e := New[int](Options{Parallelism: 1, ResultDir: dir})
	if got := e.StoredCells(); got != 0 {
		t.Errorf("index counted %d foreign cells, want 0", got)
	}
	var runs atomic.Int64
	got, _, err := e.Run(context.Background(), []Cell[int]{countingCell("k", 3, &runs)})
	if err != nil || got[0] != 3 || runs.Load() != 1 {
		t.Errorf("foreign file interfered: got %v runs %d err %v", got, runs.Load(), err)
	}
}

// TestCancelLeavesStoreConsistent asserts a cancelled batch leaves no
// temp droppings and only fully written cells, so a later run completes
// from a consistent store.
func TestCancelLeavesStoreConsistent(t *testing.T) {
	dir := t.TempDir()
	e := New[int](Options{Parallelism: 2, ResultDir: dir})
	ctx, cancel := context.WithCancel(context.Background())
	var cells []Cell[int]
	fired := make(chan struct{})
	var once sync.Once
	for i := 0; i < 16; i++ {
		i := i
		cells = append(cells, single(fmt.Sprintf("c%d", i), func(ctx context.Context) (int, error) {
			if i >= 4 {
				once.Do(func() { close(fired) })
				<-ctx.Done()
				return 0, ctx.Err()
			}
			return i * 2, nil
		}))
	}
	go func() {
		<-fired
		cancel()
	}()
	if _, _, err := e.Run(ctx, cells); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	if tmps, _ := filepath.Glob(filepath.Join(dir, "??", "*.tmp")); len(tmps) != 0 {
		t.Errorf("cancelled run left %d temp files: %v", len(tmps), tmps)
	}
	// Every persisted cell must be complete and parseable: a fresh
	// engine indexes them and a clean run serves them as store hits.
	for i := range cells {
		i := i
		cells[i] = single(cells[i].Key, func(context.Context) (int, error) { return i * 2, nil })
	}
	e2 := New[int](Options{Parallelism: 2, ResultDir: dir})
	got, stats, err := e2.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*2 {
			t.Errorf("cell %d = %d after recovery, want %d", i, v, i*2)
		}
	}
	if stats.StoreHits+stats.Simulated != 16 {
		t.Errorf("recovery stats %+v do not cover all 16 cells", stats)
	}
}
