package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hira/internal/fault"
)

// mustInjector builds an injector or fails the test.
func mustInjector(t *testing.T, seed uint64, rules ...fault.Rule) *fault.Injector {
	t.Helper()
	in, err := fault.NewInjector(seed, rules...)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// chaosCells builds n deterministic cells and a shared run counter.
func chaosCells(n int, runs *atomic.Int64) []Cell[int] {
	cells := make([]Cell[int], n)
	for i := 0; i < n; i++ {
		i := i
		cells[i] = single(fmt.Sprintf("chaos/c%d", i), func(context.Context) (int, error) {
			runs.Add(1)
			return i*i + 1, nil
		})
	}
	return cells
}

// assertChaosResults checks a batch's results against the deterministic
// ground truth — the "never wrong figures" half of the chaos contract.
func assertChaosResults(t *testing.T, got []int) {
	t.Helper()
	for i, v := range got {
		if v != i*i+1 {
			t.Fatalf("cell %d = %d, want %d — a fault changed a result instead of degrading", i, v, i*i+1)
		}
	}
}

// TestChaosStoreFaultMatrix drives the engine through every applicable
// (site, kind) combination at the result store and asserts the two-part
// contract: results stay bit-identical to the fault-free ground truth,
// and failures degrade (re-simulate, tally, flip to cache-only) rather
// than abort or corrupt.
func TestChaosStoreFaultMatrix(t *testing.T) {
	const n = 12
	cases := []struct {
		name string
		rule fault.Rule
		// warm pre-populates the store with a clean engine first, so
		// read faults have something to chew on.
		warm bool
	}{
		{"read-eio", fault.Rule{Site: fault.SiteStoreRead, Kind: fault.EIO}, true},
		{"read-corrupt", fault.Rule{Site: fault.SiteStoreRead, Kind: fault.Corrupt}, true},
		{"write-enospc", fault.Rule{Site: fault.SiteStoreWrite, Kind: fault.ENOSPC}, false},
		{"write-eio", fault.Rule{Site: fault.SiteStoreWrite, Kind: fault.EIO}, false},
		{"write-torn", fault.Rule{Site: fault.SiteStoreWrite, Kind: fault.Torn}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var runs atomic.Int64
			if tc.warm {
				clean := New[int](Options{Parallelism: 4, ResultDir: dir})
				got, _, err := clean.Run(context.Background(), chaosCells(n, &runs))
				if err != nil {
					t.Fatal(err)
				}
				assertChaosResults(t, got)
				runs.Store(0)
			}

			in := mustInjector(t, 1, tc.rule)
			e := New[int](Options{Parallelism: 4, ResultDir: dir, FS: in})
			got, stats, err := e.Run(context.Background(), chaosCells(n, &runs))
			if err != nil {
				t.Fatalf("faulted batch aborted: %v", err)
			}
			assertChaosResults(t, got)
			if in.Fired(tc.rule.Site) == 0 {
				t.Fatalf("no faults injected at %s — the test exercised nothing", tc.rule.Site)
			}

			switch tc.rule.Site {
			case fault.SiteStoreRead:
				// Every load failed or was corrupted, so every cell
				// re-simulates: a corrupted file fails its parse, its key,
				// or its checksum — and a flip inside the envelope's own
				// "sum" field name leaves a sum-less cell, a miss too.
				if stats.Simulated != n || stats.StoreHits != 0 {
					t.Errorf("read faults: stats %+v, want %d simulated", stats, n)
				}
			case fault.SiteStoreWrite:
				// Persistent write failures: the first storeDegradeAfter
				// saves tally errors, then the store flips to cache-only
				// and stops burning attempts.
				if stats.Simulated != n {
					t.Errorf("write faults: stats %+v, want %d simulated", stats, n)
				}
				if stats.StoreErrors != storeDegradeAfter {
					t.Errorf("write faults: %d store errors, want exactly %d (degrade flip)", stats.StoreErrors, storeDegradeAfter)
				}
				if why, bad := e.StoreDegraded(); !bad || !strings.Contains(why, "consecutive save failures") {
					t.Errorf("StoreDegraded = (%q, %v), want consecutive-failure degradation", why, bad)
				}
				if stats.FirstStoreError == "" {
					t.Error("FirstStoreError empty despite injected write failures")
				}
				// Degraded or not, the memory cache still serves the batch.
				warm, warmStats, err := e.Run(context.Background(), chaosCells(n, &runs))
				if err != nil || warmStats.CacheHits != n {
					t.Fatalf("cache-only rerun: stats %+v, err %v", warmStats, err)
				}
				assertChaosResults(t, warm)
			}
		})
	}
}

// TestChaosProbabilisticSweep hammers a warm/cold mix with every store
// fault armed at 50% probability and asserts results never deviate —
// the randomized complement to the exhaustive matrix above. Three
// seeded rounds over the same directory also exercise healing: what one
// round fails to persist, a later round rewrites.
func TestChaosProbabilisticSweep(t *testing.T) {
	const n = 16
	dir := t.TempDir()
	var runs atomic.Int64
	for seed := uint64(1); seed <= 3; seed++ {
		in := mustInjector(t, seed,
			fault.Rule{Site: fault.SiteStoreRead, Kind: fault.EIO, Prob: 0.25},
			fault.Rule{Site: fault.SiteStoreRead, Kind: fault.Corrupt, Prob: 0.25},
			fault.Rule{Site: fault.SiteStoreWrite, Kind: fault.ENOSPC, Prob: 0.25},
			fault.Rule{Site: fault.SiteStoreWrite, Kind: fault.Torn, Prob: 0.25},
		)
		e := New[int](Options{Parallelism: 4, ResultDir: dir, FS: in})
		got, _, err := e.Run(context.Background(), chaosCells(n, &runs))
		if err != nil {
			t.Fatalf("seed %d: chaos batch aborted: %v", seed, err)
		}
		assertChaosResults(t, got)
	}
	// After the dust settles a clean engine over the same directory must
	// see only intact cells: whatever it indexes parses and verifies.
	clean := New[int](Options{Parallelism: 4, ResultDir: dir})
	got, stats, err := clean.Run(context.Background(), chaosCells(n, &runs))
	if err != nil {
		t.Fatal(err)
	}
	assertChaosResults(t, got)
	if stats.StoreHits+stats.Simulated != n {
		t.Errorf("post-chaos stats %+v do not cover all %d cells", stats, n)
	}
}

// TestChaosStoreChecksumRejectsBitFlip plants a bit flip inside an
// otherwise well-formed cell file — valid JSON, matching key, damaged
// result — and asserts the checksum turns it into a miss. Before
// checksums this was the one corruption the store could serve as a
// silently wrong figure.
func TestChaosStoreChecksumRejectsBitFlip(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int64
	cell := countingCell("k", 1234, &runs)
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
	// Flip one digit of the stored result: still valid JSON, still the
	// right key, wrong value.
	flipped := strings.Replace(string(data), "1234", "1235", 1)
	if flipped == string(data) {
		t.Fatal("result literal not found in stored file")
	}
	if err := os.WriteFile(files[0], []byte(flipped), 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := New[int](Options{Parallelism: 1, ResultDir: dir})
	got, stats, err := e2.Run(context.Background(), []Cell[int]{cell})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1234 || runs.Load() != 2 {
		t.Fatalf("bit-flipped cell served: got %d after %d runs, want 1234 re-simulated", got[0], runs.Load())
	}
	if stats.StoreHits != 0 || stats.Simulated != 1 {
		t.Errorf("stats = %+v, want the damaged cell to read as a miss", stats)
	}

	// A sum-less cell — valid JSON, right key, intact result, no
	// checksum — is a miss too: without a sum the result is unverified.
	sumless, err := json.Marshal(map[string]any{"key": cell.Key, "result": 1234})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], sumless, 0o644); err != nil {
		t.Fatal(err)
	}
	e3 := New[int](Options{Parallelism: 1, ResultDir: dir})
	if _, stats, err := e3.Run(context.Background(), []Cell[int]{cell}); err != nil || stats.StoreHits != 0 || stats.Simulated != 1 {
		t.Errorf("sum-less cell: stats %+v, err %v, want a miss and a re-simulation", stats, err)
	}
}

// TestChaosCellPanicIsolation asserts a panicking cell fails its batch
// with an attributable error (panic value + stack) instead of killing
// the process, tallies Stats.Panics, and leaves the engine fully usable.
func TestChaosCellPanicIsolation(t *testing.T) {
	e := New[int](Options{Parallelism: 2})
	cells := []Cell[int]{
		single("fine", func(context.Context) (int, error) { return 1, nil }),
		single("bomb", func(context.Context) (int, error) { panic("simulated model invariant violation") }),
	}
	_, _, err := e.Run(context.Background(), cells)
	if err == nil {
		t.Fatal("panicking cell did not fail its batch")
	}
	msg := err.Error()
	if !strings.Contains(msg, "bomb") || !strings.Contains(msg, "simulated model invariant violation") {
		t.Errorf("panic error lacks attribution: %v", err)
	}
	if !strings.Contains(msg, "chaos_test.go") {
		t.Errorf("panic error lacks a stack trace: %v", err)
	}
	if s := e.Stats(); s.Panics != 1 {
		t.Errorf("Stats.Panics = %d, want 1", s.Panics)
	}
	// The engine survives: the same key re-runs cleanly.
	got, _, err := e.Run(context.Background(), []Cell[int]{
		single("bomb", func(context.Context) (int, error) { return 7, nil }),
	})
	if err != nil || got[0] != 7 {
		t.Errorf("engine unusable after panic: got %v, err %v", got, err)
	}
}

// TestChaosSweepStaleTmp is the stale-temp-file regression test: torn
// writes orphan *.tmp files; a later store construction sweeps the old
// ones and leaves fresh ones (a live writer's in-flight temps) alone.
func TestChaosSweepStaleTmp(t *testing.T) {
	dir := t.TempDir()
	shard := filepath.Join(dir, "ab")
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * time.Hour)
	stale1 := filepath.Join(dir, "w-stale1.tmp")
	stale2 := filepath.Join(shard, "w-stale2.tmp")
	fresh := filepath.Join(shard, "w-fresh.tmp")
	for _, p := range []string{stale1, stale2, fresh} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{stale1, stale2} {
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}

	if removed := sweepStaleTmp(dir, tmpSweepAge); removed != 2 {
		t.Errorf("sweep removed %d orphans, want 2", removed)
	}
	for _, p := range []string{stale1, stale2} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("stale orphan %s survived the sweep", p)
		}
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("fresh temp file was swept: %v", err)
	}
}

// TestChaosTornWriteLeavesRecoverableStore asserts the exact on-disk
// state a torn write leaves — orphaned temp, no destination — reads as
// a miss now and is swept at the next construction once stale.
func TestChaosTornWriteLeavesRecoverableStore(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int64
	in := mustInjector(t, 1, fault.Rule{Site: fault.SiteStoreWrite, Kind: fault.Torn, Count: 1})
	e := New[int](Options{Parallelism: 1, ResultDir: dir, FS: in})
	got, stats, err := e.Run(context.Background(), []Cell[int]{countingCell("k", 5, &runs)})
	if err != nil || got[0] != 5 {
		t.Fatalf("torn write failed the batch: got %v, err %v", got, err)
	}
	if stats.StoreErrors != 1 {
		t.Errorf("stats %+v, want the torn write tallied", stats)
	}
	tmps, _ := filepath.Glob(filepath.Join(dir, "??", "*.tmp"))
	if len(tmps) != 1 {
		t.Fatalf("torn write left %d temp files, want 1 orphan", len(tmps))
	}
	if cells := storeFiles(t, dir); len(cells) != 0 {
		t.Fatalf("torn write produced %d destination files, want 0", len(cells))
	}

	// Backdate the orphan past the sweep age: the next store opens clean.
	old := time.Now().Add(-2 * tmpSweepAge)
	if err := os.Chtimes(tmps[0], old, old); err != nil {
		t.Fatal(err)
	}
	e2 := New[int](Options{Parallelism: 1, ResultDir: dir})
	if e2.StoredCells() != 0 {
		t.Error("orphaned temp indexed as a cell")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "??", "*.tmp")); len(left) != 0 {
		t.Errorf("stale orphan survived store construction: %v", left)
	}
}

// TestChaosSnapStoreFaults covers the checkpoint-store sites: corrupt
// and failing reads are misses that drop the slot, write failures are
// tallied best-effort errors, and a failing eviction unlink still
// leaves a consistent index.
func TestChaosSnapStoreFaults(t *testing.T) {
	t.Run("read-corrupt", func(t *testing.T) {
		in := mustInjector(t, 1, fault.Rule{Site: fault.SiteSnapRead, Kind: fault.Corrupt})
		s := NewSnapStoreFS(t.TempDir(), 1<<20, in)
		if err := s.Save("traj", 100, []byte("checkpoint payload bytes")); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Load("traj", 100); ok {
			t.Fatal("corrupted checkpoint served — the checksum envelope failed")
		}
		if s.Has("traj", 100) {
			t.Error("corrupted slot not dropped; the next resume would re-read the corpse")
		}
		if in.Fired(fault.SiteSnapRead) == 0 {
			t.Fatal("no fault injected")
		}
	})
	t.Run("read-eio", func(t *testing.T) {
		in := mustInjector(t, 1, fault.Rule{Site: fault.SiteSnapRead, Kind: fault.EIO, Count: 1})
		s := NewSnapStoreFS(t.TempDir(), 1<<20, in)
		if err := s.Save("traj", 100, []byte("payload")); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Load("traj", 100); ok {
			t.Fatal("EIO read served a payload")
		}
		if s.Has("traj", 100) {
			t.Error("unreadable slot not dropped")
		}
	})
	t.Run("write-enospc", func(t *testing.T) {
		in := mustInjector(t, 1, fault.Rule{Site: fault.SiteSnapWrite, Kind: fault.ENOSPC})
		s := NewSnapStoreFS(t.TempDir(), 1<<20, in)
		err := s.Save("traj", 100, []byte("payload"))
		if err == nil {
			t.Fatal("ENOSPC save reported success")
		}
		if st := s.Stats(); st.SaveErrors != 1 || st.FirstSaveError == "" || st.Entries != 0 {
			t.Errorf("stats %+v, want 1 tallied save error and no phantom entry", st)
		}
		if s.Has("traj", 100) {
			t.Error("failed save left an index entry with no file behind it")
		}
	})
	t.Run("evict-eio", func(t *testing.T) {
		in := mustInjector(t, 1, fault.Rule{Site: fault.SiteSnapEvict, Kind: fault.EIO})
		s := NewSnapStoreFS(t.TempDir(), 64, in)
		if err := s.Save("traj", 100, make([]byte, 40)); err != nil {
			t.Fatal(err)
		}
		// This save must evict tick 100; the unlink fails but the index
		// and byte accounting stay consistent.
		if err := s.Save("traj", 200, make([]byte, 40)); err != nil {
			t.Fatal(err)
		}
		if s.Has("traj", 100) || !s.Has("traj", 200) {
			t.Errorf("eviction with failing unlink left wrong slots: ticks %v", s.Ticks("traj"))
		}
		if st := s.Stats(); st.Bytes != 40 || st.Entries != 1 || st.Evictions != 1 {
			t.Errorf("inconsistent accounting after failed unlink: %+v", st)
		}
	})
}

// TestChaosSnapStoreUnwritableRootFallsBack asserts the documented
// in-memory degradation: an unusable on-disk root still yields a store
// that serves warm resumes, reporting why it degraded.
func TestChaosSnapStoreUnwritableRootFallsBack(t *testing.T) {
	parent := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(parent, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewSnapStore(filepath.Join(parent, "snaps"), 0)
	why, bad := s.Degraded()
	if !bad || why == "" {
		t.Fatalf("Degraded = (%q, %v), want a reason", why, bad)
	}
	if s.maxBytes != DefaultSnapMaxBytesMemory {
		t.Errorf("degraded store cap = %d, want the in-memory default %d", s.maxBytes, DefaultSnapMaxBytesMemory)
	}
	payload := []byte("in-memory checkpoint")
	if err := s.Save("traj", 100, payload); err != nil {
		t.Fatalf("in-memory fallback save failed: %v", err)
	}
	got, ok := s.Load("traj", 100)
	if !ok || string(got) != string(payload) {
		t.Fatalf("in-memory fallback load = (%q, %v)", got, ok)
	}
}

// TestChaosSnapChecksumEnvelopeRoundTrip pins the envelope format: a
// wrapped payload unwraps to the same bytes, damage anywhere inside —
// the magic included — is rejected, and so is a payload without the
// envelope.
func TestChaosSnapChecksumEnvelopeRoundTrip(t *testing.T) {
	payload := []byte("HIRASYS2 pretend snapshot state bytes")
	wrapped := wrapSnapSum(payload)
	got, ok := unwrapSnapSum(wrapped)
	if !ok || string(got) != string(payload) {
		t.Fatalf("round trip = (%q, %v)", got, ok)
	}
	for i := range wrapped {
		damaged := append([]byte(nil), wrapped...)
		damaged[i] ^= 0xA5
		if out, ok := unwrapSnapSum(damaged); ok {
			t.Fatalf("byte %d flip accepted as valid envelope (payload %q)", i, out)
		}
	}
	if out, ok := unwrapSnapSum(payload); ok {
		t.Fatalf("unwrapped payload accepted (%q)", out)
	}
	if out, ok := unwrapSnapSum(wrapped[:len(snapSumMagic)+1]); ok {
		t.Fatalf("truncated envelope accepted (%q)", out)
	}
}
