package engine

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hira/internal/fault"
)

// SnapStats tallies a SnapStore's lifetime activity: how often resuming
// runs found a usable checkpoint, how much work the byte cap evicted,
// and the store's current footprint.
type SnapStats struct {
	Hits      uint64 `json:"hits"`      // resume attempts that restored a usable checkpoint
	Misses    uint64 `json:"misses"`    // resume attempts that found nothing usable
	Loads     uint64 `json:"loads"`     // checkpoint payload reads served
	Saves     uint64 `json:"saves"`     // checkpoints written
	Evictions uint64 `json:"evictions"` // checkpoints dropped by the byte cap
	Bytes     int64  `json:"bytes"`     // current payload bytes
	Entries   int    `json:"entries"`   // current checkpoint count

	// GhostHits and EvictionResimTicks are the cache-economics pair: a
	// ghost hit is a resume attempt that would have restored a further
	// checkpoint had the byte cap not evicted it, and EvictionResimTicks
	// accumulates the simulation ticks those evictions force back onto
	// the CPU. Together they price the cap — a store with evictions but
	// zero ghost hits evicted only dead weight; one with a climbing
	// resim-tick tally is thrashing its working set.
	GhostHits          uint64 `json:"ghost_hits"`
	EvictionResimTicks uint64 `json:"eviction_resim_ticks"`

	// SaveErrors counts checkpoints that could not be written (disk
	// full, permissions, over-cap payloads) — saves are best-effort, so
	// without this tally a store silently degrading to cold simulation
	// would be invisible. FirstSaveError describes the first failure.
	SaveErrors     uint64 `json:"save_errors"`
	FirstSaveError string `json:"first_save_error,omitempty"`

	// DeltaSaves/DeltaBytes split out differential checkpoints (deltas
	// against an earlier checkpoint of the same trajectory) from the
	// totals above, pricing the encoding: Saves - DeltaSaves full
	// snapshots wrote Bytes - ... well, DeltaBytes of the cumulative
	// save volume came in as deltas. A store whose DeltaBytes/DeltaSaves
	// ratio approaches the full-snapshot size has trajectories touching
	// their whole working set every interval.
	DeltaSaves uint64 `json:"delta_saves"`
	DeltaBytes uint64 `json:"delta_bytes"` // cumulative delta payload bytes written
}

// DefaultSnapMaxBytes is the checkpoint store's default byte cap for
// on-disk stores. Sized for a full figure sweep's working set (~100
// trajectories at a few checkpoints of ~2 MB each): a cap that doesn't
// hold one sweep makes a sequential rerun evict every checkpoint
// moments before it would have been resumed.
const DefaultSnapMaxBytes = 2 << 30

// DefaultSnapMaxBytesMemory is the default cap for in-memory stores,
// where the budget is process RAM rather than disk.
const DefaultSnapMaxBytesMemory = 256 << 20

// snapEntry is one stored checkpoint.
type snapEntry struct {
	hash  string
	tick  int
	base  int // delta base tick; 0 = full snapshot
	size  int64
	touch uint64 // last-use order for oldest-first eviction
	data  []byte // payload, in-memory mode only
}

// SnapStore holds simulation checkpoints keyed by (trajectory key, tick):
// opaque binary snapshots a cell runner writes while simulating and reads
// to resume a longer run from a shorter one's state. With a directory it
// shares the result store's layout — 256 two-hex shard directories,
// temp-file + rename atomic writes, a startup-built index — storing each
// checkpoint as <sha256(key)>@<tick>.snap next to the JSON cells; without
// one it degrades to a process-local in-memory store, which still lets a
// long-lived engine (e.g. the experiment service) answer "same cell,
// longer horizon" by simulating only the delta.
//
// The store is bounded: once stored payloads exceed maxBytes, the
// least-recently-used checkpoints are evicted (oldest-first when nothing
// has been re-read) until the new save fits. Corrupt or unreadable files
// are misses — the consumer validates payloads and re-simulates.
type SnapStore struct {
	root     string // "" = in-memory
	maxBytes int64
	fs       fault.FS
	degraded string // non-empty: requested on-disk root was unusable; why

	mu      sync.Mutex
	entries map[string]map[int]*snapEntry // key hash -> tick -> entry
	total   int64
	clock   uint64
	stats   SnapStats

	// Ghost list: a bounded ring remembering recently evicted (hash,
	// tick) slots so AttributeResim can tell "cold because never saved"
	// from "cold because evicted". Re-saving the exact slot clears its
	// ghost; overwriting the ring forgets the oldest evictions first.
	ghosts    []ghost
	ghostNext int
	ghostIdx  map[string]map[int]int // hash -> tick -> ring slot
}

// ghost is one remembered eviction.
type ghost struct {
	hash string
	tick int
}

// ghostRingSize bounds the eviction memory: enough to cover every
// checkpoint of a full sweep's trajectories without letting a
// long-lived store grow an unbounded tombstone list.
const ghostRingSize = 4096

// NewSnapStore opens (creating if needed) a checkpoint store rooted at
// dir, or an in-memory store when dir is empty. maxBytes <= 0 applies
// DefaultSnapMaxBytes (disk) or DefaultSnapMaxBytesMemory (in-memory).
func NewSnapStore(dir string, maxBytes int64) *SnapStore {
	return NewSnapStoreFS(dir, maxBytes, nil)
}

// NewSnapStoreFS is NewSnapStore with an explicit fault.FS for chaos
// testing (nil means the real filesystem). An unusable or unwritable
// on-disk root does not fail construction: the store flips to in-memory
// mode — checkpoints still serve warm resumes for the process's
// lifetime, they just don't survive a restart — and records why in
// Degraded().
func NewSnapStoreFS(dir string, maxBytes int64, fsys fault.FS) *SnapStore {
	if fsys == nil {
		fsys = fault.OS
	}
	s := &SnapStore{root: dir, fs: fsys, entries: make(map[string]map[int]*snapEntry)}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			s.degraded = fmt.Sprintf("snapshot root unusable: %v", err)
			s.root = ""
		} else if err := probeWritable(dir); err != nil {
			s.degraded = fmt.Sprintf("snapshot root unwritable: %v", err)
			s.root = ""
		}
	}
	if maxBytes <= 0 {
		if s.root == "" {
			maxBytes = DefaultSnapMaxBytesMemory
		} else {
			maxBytes = DefaultSnapMaxBytes
		}
	}
	s.maxBytes = maxBytes
	if s.root == "" {
		return s
	}
	sweepStaleTmp(dir, tmpSweepAge)
	shards, err := os.ReadDir(dir)
	if err != nil {
		return s
	}
	// Index existing checkpoints, oldest first by modification time so
	// the eviction order survives restarts.
	type found struct {
		e   *snapEntry
		mod int64
	}
	var all []found
	for _, sh := range shards {
		if !sh.IsDir() || !isShardName(sh.Name()) {
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, sh.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			hash, tick, base, ok := snapFileName(f.Name())
			if !ok {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			all = append(all, found{
				e:   &snapEntry{hash: hash, tick: tick, base: base, size: snapPayloadSize(info.Size())},
				mod: info.ModTime().UnixNano(),
			})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].mod < all[j].mod })
	for _, f := range all {
		s.clock++
		f.e.touch = s.clock
		s.insertLocked(f.e)
	}
	return s
}

// snapSumMagic prefixes every on-disk checkpoint, followed by the
// SHA-256 of the payload. The consumer's structural validation (the
// snapshot's own magic and embedded key) catches truncation and wrong-
// slot payloads but not a bit flip deep inside the state bytes, which
// would otherwise restore silently wrong simulator state; the envelope
// makes any corruption a detectable miss. A file without the envelope
// (or whose prefix itself got corrupted) is a miss like any other
// damage.
var snapSumMagic = []byte("HIRASUM1")

// wrapSnapSum frames a checkpoint payload for disk: magic, SHA-256,
// payload.
func wrapSnapSum(data []byte) []byte {
	out := make([]byte, 0, len(snapSumMagic)+sha256.Size+len(data))
	out = append(out, snapSumMagic...)
	sum := sha256.Sum256(data)
	out = append(out, sum[:]...)
	return append(out, data...)
}

// unwrapSnapSum verifies and strips the checksum envelope; data without
// an intact envelope is rejected.
func unwrapSnapSum(raw []byte) ([]byte, bool) {
	header := len(snapSumMagic) + sha256.Size
	if len(raw) < header || !bytes.HasPrefix(raw, snapSumMagic) {
		return nil, false
	}
	sum := sha256.Sum256(raw[header:])
	if !bytes.Equal(sum[:], raw[len(snapSumMagic):header]) {
		return nil, false
	}
	return raw[header:], true
}

// snapPayloadSize returns the payload size of a checkpoint file of
// fileSize bytes: the file size minus the checksum envelope, so the
// restart index accounts the same bytes the live store did (Stats.Bytes
// is payload bytes). A file too short to hold the envelope counts as
// empty; its first load rejects and drops it.
func snapPayloadSize(fileSize int64) int64 {
	return max(fileSize-int64(len(snapSumMagic)+sha256.Size), 0)
}

// snapFileName parses a checkpoint file name: <64-hex>@<tick>.snap for
// a full snapshot, or <64-hex>@<tick>.d<base>.snap for a delta against
// the same trajectory's checkpoint at <base>. Encoding the base in the
// name keeps the restart index chain-aware without opening any file.
func snapFileName(name string) (hash string, tick, base int, ok bool) {
	rest, ok := strings.CutSuffix(name, ".snap")
	if !ok || len(rest) < 66 || rest[64] != '@' {
		return "", 0, 0, false
	}
	hash = rest[:64]
	if _, ok := flatCellName(hash + ".json"); !ok {
		return "", 0, 0, false
	}
	ticks := rest[65:]
	if i := strings.IndexByte(ticks, '.'); i >= 0 {
		if len(ticks) < i+2 || ticks[i+1] != 'd' {
			return "", 0, 0, false
		}
		base, _ = strconv.Atoi(ticks[i+2:])
		if base <= 0 {
			return "", 0, 0, false
		}
		ticks = ticks[:i]
	}
	tick, err := strconv.Atoi(ticks)
	if err != nil || tick <= 0 || (base != 0 && base >= tick) {
		return "", 0, 0, false
	}
	return hash, tick, base, true
}

// insertLocked adds e to the index, replacing any same-slot entry.
func (s *SnapStore) insertLocked(e *snapEntry) {
	byTick := s.entries[e.hash]
	if byTick == nil {
		byTick = make(map[int]*snapEntry)
		s.entries[e.hash] = byTick
	}
	if old := byTick[e.tick]; old != nil {
		s.total -= old.size
		s.stats.Entries--
	}
	byTick[e.tick] = e
	s.total += e.size
	s.stats.Entries++
}

// Ticks returns the ticks with a stored checkpoint for key, ascending.
func (s *SnapStore) Ticks(key string) []int {
	hash := hashKey(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	byTick := s.entries[hash]
	if len(byTick) == 0 {
		return nil
	}
	out := make([]int, 0, len(byTick))
	for t := range byTick {
		out = append(out, t)
	}
	sort.Ints(out)
	return out
}

// Has reports whether a checkpoint exists for (key, tick).
func (s *SnapStore) Has(key string, tick int) bool {
	hash := hashKey(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries[hash][tick] != nil
}

// Load returns the checkpoint payload for (key, tick). A missing,
// unreadable, or vanished checkpoint is (nil, false); payload validation
// is the consumer's job (the self-describing snapshot embeds its own key
// and version). Load does not tally hits or misses — those are
// per-resume-attempt (NoteHit/NoteMiss), not per-read, so one attempt
// that probes several candidates still counts once. File reads happen
// outside the index lock: checkpoints run to megabytes, and a worker
// pool must not serialize on one cell's disk I/O.
func (s *SnapStore) Load(key string, tick int) ([]byte, bool) {
	hash := hashKey(key)
	s.mu.Lock()
	e := s.entries[hash][tick]
	var data []byte
	var path string
	if e != nil {
		if s.root == "" {
			s.clock++
			e.touch = s.clock
			s.stats.Loads++
			data = e.data
		} else {
			path = s.snapPath(hash, tick, e.base)
		}
	}
	s.mu.Unlock()
	if e == nil {
		return nil, false
	}
	if s.root == "" {
		return data, true
	}
	raw, err := s.fs.ReadFile(fault.SiteSnapRead, path)
	if err != nil {
		s.mu.Lock()
		s.dropLocked(e, false)
		s.mu.Unlock()
		return nil, false
	}
	data, ok := unwrapSnapSum(raw)
	if !ok {
		// Checksum mismatch: the file is damaged. Drop the slot so the
		// next resume attempt doesn't re-read the same corpse.
		s.mu.Lock()
		s.dropLocked(e, false)
		s.mu.Unlock()
		return nil, false
	}
	// Refresh the file's mtime so recency survives restarts: the startup
	// index orders entries by modification time, and without this bump a
	// reopened store would evict by save order — dropping the hottest
	// checkpoints first. Best-effort; a failed touch only costs restart
	// ordering, never the payload.
	now := time.Now()
	s.fs.Chtimes(fault.SiteSnapRead, path, now)
	s.mu.Lock()
	s.clock++
	e.touch = s.clock
	s.stats.Loads++
	s.mu.Unlock()
	return data, true
}

// NoteHit records a resume attempt that restored a usable checkpoint.
func (s *SnapStore) NoteHit() {
	s.mu.Lock()
	s.stats.Hits++
	s.mu.Unlock()
}

// NoteMiss records a resume attempt that found no usable checkpoint
// (including ones whose payloads failed validation downstream), keeping
// the hit/miss tallies meaningful to operators.
func (s *SnapStore) NoteMiss() {
	s.mu.Lock()
	s.stats.Misses++
	s.mu.Unlock()
}

// Save stores a checkpoint for (key, tick), evicting least-recently-used
// checkpoints if needed to respect the byte cap. A payload larger than
// the whole cap is rejected. Saving an already-present slot overwrites
// it. The store takes ownership of data — callers must not reuse the
// slice (checkpoints run to megabytes, and the save path is hot enough
// that a defensive copy is measurable). Failures are tallied in
// SaveErrors/FirstSaveError besides being returned, because callers
// treat saves as best-effort and would otherwise degrade silently.
func (s *SnapStore) Save(key string, tick int, data []byte) error {
	err := s.save(key, tick, 0, data)
	if err != nil {
		s.noteSaveErr(err)
	}
	return err
}

// SaveDelta stores a differential checkpoint for (key, tick) encoded
// against the same trajectory's checkpoint at baseTick. It shares
// Save's semantics (LRU eviction, overwrite, ownership of data); the
// base linkage additionally means evicting the base cascades to every
// delta chained on it, so the index never advertises a checkpoint it
// cannot restore.
func (s *SnapStore) SaveDelta(key string, tick, baseTick int, data []byte) error {
	if baseTick <= 0 || baseTick >= tick {
		err := fmt.Errorf("engine: delta base tick %d invalid for checkpoint tick %d", baseTick, tick)
		s.noteSaveErr(err)
		return err
	}
	err := s.save(key, tick, baseTick, data)
	if err != nil {
		s.noteSaveErr(err)
	}
	return err
}

// BaseTick returns the stored checkpoint's delta base tick (0 for a
// full snapshot) and whether the slot exists.
func (s *SnapStore) BaseTick(key string, tick int) (int, bool) {
	hash := hashKey(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[hash][tick]
	if e == nil {
		return 0, false
	}
	return e.base, true
}

func (s *SnapStore) noteSaveErr(err error) {
	s.mu.Lock()
	s.stats.SaveErrors++
	if s.stats.FirstSaveError == "" {
		s.stats.FirstSaveError = err.Error()
	}
	s.mu.Unlock()
}

func (s *SnapStore) save(key string, tick, base int, data []byte) error {
	if tick <= 0 {
		return fmt.Errorf("engine: checkpoint tick %d must be positive", tick)
	}
	size := int64(len(data))
	if size > s.maxBytes {
		return fmt.Errorf("engine: %d-byte checkpoint exceeds the %d-byte store cap", size, s.maxBytes)
	}
	hash := hashKey(key)
	if s.root != "" {
		// Write the payload before touching the index, outside the lock
		// (the multi-megabyte I/O must not serialize the worker pool).
		// Concurrent same-slot writers race benignly: trajectories are
		// deterministic, so both payloads are identical, and the atomic
		// rename means the last one wins.
		if err := s.fs.WriteFileAtomic(fault.SiteSnapWrite, s.snapPath(hash, tick, base), wrapSnapSum(data)); err != nil {
			return fmt.Errorf("engine: snapshot store: %w", err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Retire any same-slot entry's accounting first — its file (if any)
	// was just atomically replaced, so it must not become an eviction
	// victim below and delete the fresh payload. A same-slot entry of
	// the other kind lives under a different file name, so its stale
	// file is removed explicitly.
	if old := s.entries[hash][tick]; old != nil {
		delete(s.entries[hash], tick)
		if len(s.entries[hash]) == 0 {
			delete(s.entries, hash)
		}
		s.total -= old.size
		s.stats.Entries--
		if s.root != "" && old.base != base {
			s.fs.Remove(fault.SiteSnapEvict, s.snapPath(old.hash, old.tick, old.base))
		}
	}
	// A delta must not orphan itself: its base chain is pinned against
	// the eviction loop below (evicting the base would leave the fresh
	// delta unrestorable via the cascade).
	var protected map[int]bool
	if base > 0 {
		protected = make(map[int]bool)
		for t := base; t > 0; {
			protected[t] = true
			anc := s.entries[hash][t]
			if anc == nil {
				break
			}
			t = anc.base
		}
	}
	for s.total+size > s.maxBytes {
		victim := s.oldestLocked(hash, protected)
		if victim == nil {
			if protected == nil {
				break
			}
			// Only the pending delta's own base chain remains evictable;
			// dropping it would orphan the new delta, so reject the save.
			if s.root != "" {
				s.fs.Remove(fault.SiteSnapEvict, s.snapPath(hash, tick, base))
			}
			return fmt.Errorf("engine: %d-byte delta checkpoint cannot fit without evicting its base chain", size)
		}
		s.dropLocked(victim, true)
	}
	e := &snapEntry{hash: hash, tick: tick, base: base, size: size}
	if s.root == "" {
		e.data = data
	}
	s.clock++
	e.touch = s.clock
	s.insertLocked(e)
	s.forgetGhostLocked(hash, tick) // the slot lives again; stop charging its eviction
	s.stats.Saves++
	if base > 0 {
		s.stats.DeltaSaves++
		s.stats.DeltaBytes += uint64(size)
	}
	return nil
}

// oldestLocked returns the least-recently-used entry, or nil when no
// entry is evictable. Entries of trajectory `hash` whose tick is in
// `protected` are skipped (a pending delta's base chain).
func (s *SnapStore) oldestLocked(hash string, protected map[int]bool) *snapEntry {
	var victim *snapEntry
	for h, byTick := range s.entries {
		for _, e := range byTick {
			if protected != nil && h == hash && protected[e.tick] {
				continue
			}
			if victim == nil || e.touch < victim.touch {
				victim = e
			}
		}
	}
	return victim
}

// dropLocked removes an entry from the index (and its file on disk),
// optionally counting it as an eviction. Dropping a checkpoint also
// drops, transitively, every delta chained on it — their payloads are
// meaningless without the base, and an index advertising them would
// turn the loss into a restore-time error instead of a clean miss.
// Cascaded drops inherit the eviction accounting (and ghosts), since
// the byte cap is what made them unrestorable.
func (s *SnapStore) dropLocked(e *snapEntry, evict bool) {
	byTick := s.entries[e.hash]
	if byTick[e.tick] != e {
		return
	}
	delete(byTick, e.tick)
	if len(byTick) == 0 {
		delete(s.entries, e.hash)
	}
	s.total -= e.size
	s.stats.Entries--
	if evict {
		s.stats.Evictions++
		s.rememberGhostLocked(e.hash, e.tick)
	}
	if s.root != "" {
		// Best-effort: a file that can't be removed (injected EIO) leaves a
		// few stray bytes on disk but a consistent index; the slot is gone
		// either way, and the startup indexer will rediscover survivors.
		s.fs.Remove(fault.SiteSnapEvict, s.snapPath(e.hash, e.tick, e.base))
	}
	for _, dep := range s.entries[e.hash] {
		if dep.base == e.tick {
			s.dropLocked(dep, evict)
		}
	}
}

// rememberGhostLocked records an evicted slot in the bounded ghost ring.
func (s *SnapStore) rememberGhostLocked(hash string, tick int) {
	if s.ghostIdx == nil {
		s.ghostIdx = make(map[string]map[int]int)
		s.ghosts = make([]ghost, ghostRingSize)
	}
	if _, ok := s.ghostIdx[hash][tick]; ok {
		return
	}
	slot := s.ghostNext % ghostRingSize
	if old := s.ghosts[slot]; old.hash != "" {
		s.forgetGhostLocked(old.hash, old.tick)
	}
	s.ghosts[slot] = ghost{hash: hash, tick: tick}
	byTick := s.ghostIdx[hash]
	if byTick == nil {
		byTick = make(map[int]int)
		s.ghostIdx[hash] = byTick
	}
	byTick[tick] = slot
	s.ghostNext++
}

// forgetGhostLocked drops a remembered eviction, if present.
func (s *SnapStore) forgetGhostLocked(hash string, tick int) {
	byTick := s.ghostIdx[hash]
	slot, ok := byTick[tick]
	if !ok {
		return
	}
	delete(byTick, tick)
	if len(byTick) == 0 {
		delete(s.ghostIdx, hash)
	}
	s.ghosts[slot] = ghost{}
}

// AttributeResim charges re-simulated work to prior evictions: a resume
// attempt for key that restored tick `resumed` (0 = cold start) and must
// now simulate to `horizon` checks the ghost list for the furthest
// evicted checkpoint it could have used instead. Finding ghost tick G
// with resumed < G <= horizon counts one GhostHit and G-resumed
// EvictionResimTicks — exactly the ticks the byte cap put back on the
// CPU. Attempts with no covering ghost charge nothing: that work was
// simply never checkpointed.
func (s *SnapStore) AttributeResim(key string, resumed, horizon int) {
	hash := hashKey(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	best := 0
	for tick := range s.ghostIdx[hash] {
		if tick > resumed && tick <= horizon && tick > best {
			best = tick
		}
	}
	if best > 0 {
		s.stats.GhostHits++
		s.stats.EvictionResimTicks += uint64(best - resumed)
	}
}

// snapPath returns where a checkpoint lives: root/ab/ab...@tick.snap
// for full snapshots, root/ab/ab...@tick.d<base>.snap for deltas.
func (s *SnapStore) snapPath(hash string, tick, base int) string {
	if base > 0 {
		return filepath.Join(s.root, hash[:2], fmt.Sprintf("%s@%d.d%d.snap", hash, tick, base))
	}
	return filepath.Join(s.root, hash[:2], fmt.Sprintf("%s@%d.snap", hash, tick))
}

// Degraded reports whether the store fell back to in-memory mode because
// its requested on-disk root was unusable, and why.
func (s *SnapStore) Degraded() (string, bool) {
	return s.degraded, s.degraded != ""
}

// Stats returns a snapshot of the store's tallies.
func (s *SnapStore) Stats() SnapStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Bytes = s.total
	return st
}
