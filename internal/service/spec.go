// Package service is the HTTP experiment service over the HiRA
// reproduction: clients POST job specs (figure sweeps with arbitrary
// capacity/NRH/channel grids, single RunPolicies evaluations,
// characterization, security-analysis, and area-model runs), a bounded
// scheduler executes them on one shared experiment engine, and results
// stream back over JSON and server-sent events. Because every job
// decomposes into the engine's deterministic content-keyed cells,
// concurrent clients asking overlapping questions share simulations —
// each distinct cell simulates exactly once per store lifetime.
package service

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"hira/internal/charz"
	"hira/internal/sim"
	"hira/internal/workload"
)

// Kinds a JobSpec can request.
const (
	KindFig9         = "fig9"
	KindFig12        = "fig12"
	KindFig13        = "fig13"
	KindFig14        = "fig14"
	KindFig15        = "fig15"
	KindFig16        = "fig16"
	KindPolicies     = "policies"
	KindCharacterize = "characterize"
	KindSecurity     = "security"
	KindArea         = "area"
	KindAttack       = "attack"
)

// JobSpec is the body of POST /v1/jobs: one experiment request.
type JobSpec struct {
	// Kind selects the experiment: a figure sweep ("fig9" ... "fig16"),
	// a direct policy evaluation ("policies"), the §4 characterization
	// ("characterize"), the §9.1 security analysis ("security"), or the
	// §6 area model ("area").
	Kind string `json:"kind"`

	// Sim sizes the simulation for figure and policy kinds; nil takes
	// laptop-scale defaults (4 mixes × 8 cores, 120k measured ticks).
	Sim *SimSpec `json:"sim,omitempty"`

	// Capacities is the chip-capacity grid in Gbit for fig9 (x-axis) and
	// figs. 13/14 (second parameter); nil takes the paper's values.
	Capacities []int `json:"capacities,omitempty"`
	// NRHs is the RowHammer-threshold grid for fig12 (x-axis) and
	// figs. 15/16 (second parameter); nil takes the paper's values.
	NRHs []int `json:"nrhs,omitempty"`
	// Xs is the channel/rank axis of figs. 13-16; nil takes {1,2,4,8}.
	Xs []int `json:"xs,omitempty"`

	// Config is the base system shape for kind "policies"; nil is
	// Table 3's system.
	Config *ConfigSpec `json:"config,omitempty"`
	// Policies is the policy set for kind "policies"; required there.
	Policies []PolicySpec `json:"policies,omitempty"`

	// Charz sizes kind "characterize"; nil characterizes all modules at
	// reduced (laptop-scale) defaults.
	Charz *CharzSpec `json:"charz,omitempty"`

	// Attacks selects attacker presets for kind "attack" (names from
	// sim.AttackKinds: "single", "double", "many", "refsync", "decoy");
	// nil runs all of them. The attack sweep pairs each preset with the
	// mitigation zoo at each NRHs value and always runs the forensics
	// ledger, so per-point efficacy metrics land in the result.
	Attacks []string `json:"attacks,omitempty"`

	// Workloads, for figure and policy kinds, replaces the builtin
	// random SPEC mixes with an explicit workload set: named mixes over
	// builtin benchmarks, inline custom profiles, and recorded traces
	// from the server's trace directory. Nil keeps the builtin mixes.
	Workloads *WorkloadsSpec `json:"workloads,omitempty"`

	// TimeoutSeconds, when positive, bounds the job's wall-clock
	// execution time, enforced server-side: a job still running when the
	// deadline fires is interrupted and finalized as failed with a
	// deadline error. Fractional values are honored (0.5 is 500ms). 0
	// means no deadline. Valid for every kind; capped at one day.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

// maxTimeoutSeconds caps per-job deadlines at one day: beyond that a
// "deadline" is indistinguishable from no deadline, and absurd values
// usually mean a units mistake in the client.
const maxTimeoutSeconds = 86400

// validateTimeout checks the spec's wall-clock deadline, kind-agnostic.
func (spec JobSpec) validateTimeout() error {
	if spec.TimeoutSeconds < 0 {
		return fmt.Errorf("timeout_seconds must not be negative")
	}
	if spec.TimeoutSeconds > maxTimeoutSeconds {
		return fmt.Errorf("timeout_seconds %g exceeds the maximum %d", spec.TimeoutSeconds, maxTimeoutSeconds)
	}
	return nil
}

// WorkloadsSpec is the spec's custom-workload object. Every mix entry
// names one workload per core; names resolve against Traces, then
// Profiles, then the builtin SPEC CPU2006 benchmarks.
type WorkloadsSpec struct {
	// Mixes lists the multiprogrammed mixes to run: one workload name
	// per core, exactly cores names per mix. Required, at least one.
	Mixes [][]string `json:"mixes"`
	// Profiles defines inline custom profiles addressable from Mixes.
	Profiles []ProfileSpec `json:"profiles,omitempty"`
	// Traces references recorded trace files (hira-sim -record) in the
	// server's trace directory, addressable from Mixes by name.
	Traces []TraceSpec `json:"traces,omitempty"`
}

// ProfileSpec is one inline custom workload profile.
type ProfileSpec struct {
	Name        string  `json:"name"`
	MPKI        float64 `json:"mpki"`
	RowLocality float64 `json:"row_locality"`
	FootprintMB int     `json:"footprint_mb"`
	WriteFrac   float64 `json:"write_frac"`
}

// profile converts the spec to a workload.Profile.
func (p ProfileSpec) profile() workload.Profile {
	return workload.Profile{
		Name: p.Name, MPKI: p.MPKI, RowLocality: p.RowLocality,
		FootprintMB: p.FootprintMB, WriteFrac: p.WriteFrac,
	}
}

// TraceSpec references one recorded trace file by name.
type TraceSpec struct {
	// Name is how Mixes entries address the trace.
	Name string `json:"name"`
	// File is the trace's bare file name inside the server's trace
	// directory (no path separators).
	File string `json:"file"`
}

// SimSpec sizes a simulation sweep. Zero fields take sim.Options
// defaults.
type SimSpec struct {
	Workloads int    `json:"workloads,omitempty"`
	Cores     int    `json:"cores,omitempty"`
	Warmup    int    `json:"warmup,omitempty"`
	Measure   int    `json:"measure,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
	// Forensics runs the sweep's simulation cells with the RowHammer
	// forensics ledger enabled; per-policy summaries land in the result
	// and on GET /v1/jobs/{id}/forensics. Figures are bit-identical
	// either way, but forensics cells never resume from checkpoints.
	Forensics bool `json:"forensics,omitempty"`
	// ForensicsRecorder additionally arms the DRAM command flight
	// recorder; requires Forensics.
	ForensicsRecorder bool `json:"forensics_recorder,omitempty"`
}

// ConfigSpec is the base system shape for policy evaluations. Zero
// fields take Table 3 defaults (8 Gbit chips, 1 channel, 1 rank,
// SPT coverage 0.32).
type ConfigSpec struct {
	CapacityGbit int     `json:"capacity_gbit,omitempty"`
	Channels     int     `json:"channels,omitempty"`
	Ranks        int     `json:"ranks,omitempty"`
	SPTCoverage  float64 `json:"spt_coverage,omitempty"`
}

// PolicySpec names one refresh policy.
type PolicySpec struct {
	// Type: "norefresh", "baseline", "hira" (periodic HiRA-Slack),
	// "para" (PARA at NRH without HiRA), "para+hira", or a mitigation-zoo
	// engine: "graphene" (counter-table tracker) or "rfm" (DDR5
	// refresh-management pacing).
	Type string `json:"type"`
	// Slack is the N of HiRA-N (tRefSlack in units of tRC).
	Slack int `json:"slack,omitempty"`
	// NRH is the RowHammer threshold for the PARA and zoo types.
	NRH int `json:"nrh,omitempty"`
	// Param tunes a zoo engine: Graphene's counter-table size or RFM's
	// RAAIMT activation budget. 0 takes the engine's default sizing.
	Param int `json:"param,omitempty"`
}

// CharzSpec sizes a characterization job.
type CharzSpec struct {
	// Modules lists module labels from Table 1 ("A0", "B1", ...); empty
	// characterizes every working module.
	Modules    []string `json:"modules,omitempty"`
	RegionSize int      `json:"region_size,omitempty"`
	RowAStride int      `json:"row_a_stride,omitempty"`
	RowBStride int      `json:"row_b_stride,omitempty"`
	NRHVictims int      `json:"nrh_victims,omitempty"`
}

// Limits bounds what one job may ask of the service, so a single spec
// cannot monopolize it. Zero fields take the defaults noted.
type Limits struct {
	MaxWorkloads int `json:"max_workloads"` // default 128
	MaxCores     int `json:"max_cores"`     // default 64
	MaxTicks     int `json:"max_ticks"`     // warmup+measure; default 10M
	MaxGrid      int `json:"max_grid"`      // entries per axis; default 32
	MaxPolicies  int `json:"max_policies"`  // default 32
	// MaxTraces and MaxProfiles bound the workloads object's trace and
	// inline-profile lists. Trace entries cost submission-time I/O (each
	// distinct file is read and hashed once in the HTTP handler), so the
	// trace cap also bounds how much disk a single POST can touch;
	// defaults 16 and 64.
	MaxTraces   int `json:"max_traces"`
	MaxProfiles int `json:"max_profiles"`
	// MaxTotalTicks bounds a job's estimated total simulation cost —
	// sweep points x policies x workloads x (warmup+measure) — because
	// per-axis caps alone still admit specs whose product is days of
	// compute; default 100G ticks.
	MaxTotalTicks int64 `json:"max_total_ticks"`
}

func (l Limits) withDefaults() Limits {
	if l.MaxWorkloads == 0 {
		l.MaxWorkloads = 128
	}
	if l.MaxCores == 0 {
		l.MaxCores = 64
	}
	if l.MaxTicks == 0 {
		l.MaxTicks = 10_000_000
	}
	if l.MaxGrid == 0 {
		l.MaxGrid = 32
	}
	if l.MaxPolicies == 0 {
		l.MaxPolicies = 32
	}
	if l.MaxTraces == 0 {
		l.MaxTraces = 16
	}
	if l.MaxProfiles == 0 {
		l.MaxProfiles = 64
	}
	if l.MaxTotalTicks == 0 {
		l.MaxTotalTicks = 100_000_000_000
	}
	return l
}

// Validate checks the workload object against the limits (zero fields
// take defaults) and the sweep's effective core count. It is pure —
// trace files are only referenced by name here and loaded by Resolve —
// so the fuzzable validation path never touches the filesystem.
// cmd/hira-sim reuses it for -workload-spec files, keeping CLI and
// service acceptance identical.
func (w *WorkloadsSpec) Validate(l Limits, cores int) error {
	if w == nil {
		return nil
	}
	l = l.withDefaults()
	if len(w.Mixes) == 0 {
		return fmt.Errorf("workloads needs at least one mix")
	}
	if len(w.Mixes) > l.MaxWorkloads {
		return fmt.Errorf("%d workload mixes exceeds the limit of %d", len(w.Mixes), l.MaxWorkloads)
	}
	if len(w.Traces) > l.MaxTraces {
		return fmt.Errorf("%d trace references exceeds the limit of %d", len(w.Traces), l.MaxTraces)
	}
	if len(w.Profiles) > l.MaxProfiles {
		return fmt.Errorf("%d inline profiles exceeds the limit of %d", len(w.Profiles), l.MaxProfiles)
	}
	names := map[string]bool{}
	defined := func(kind, name string) error {
		if !workload.ValidName(name) {
			return fmt.Errorf("bad %s name %q (want 1-64 chars of [A-Za-z0-9._-])", kind, name)
		}
		if names[name] {
			return fmt.Errorf("duplicate workload name %q", name)
		}
		if _, err := workload.ProfileByName(name); err == nil {
			return fmt.Errorf("%s name %q shadows a builtin benchmark; rename it", kind, name)
		}
		names[name] = true
		return nil
	}
	for _, ts := range w.Traces {
		if err := defined("trace", ts.Name); err != nil {
			return err
		}
		// Reject both separator styles explicitly: filepath.Base alone
		// would let backslashes through on non-Windows hosts.
		if ts.File == "" || strings.ContainsAny(ts.File, `/\`) ||
			ts.File != filepath.Base(ts.File) || ts.File == "." || ts.File == ".." {
			return fmt.Errorf("trace %q: file %q must be a bare file name in the server's trace directory", ts.Name, ts.File)
		}
	}
	for _, ps := range w.Profiles {
		if err := defined("profile", ps.Name); err != nil {
			return err
		}
		if err := ps.profile().Validate(); err != nil {
			return err
		}
	}
	for mi, mix := range w.Mixes {
		if len(mix) != cores {
			return fmt.Errorf("mix %d has %d workloads for %d cores", mi, len(mix), cores)
		}
		for _, name := range mix {
			if names[name] {
				continue
			}
			if _, err := workload.ProfileByName(name); err != nil {
				return fmt.Errorf("mix %d: unknown workload %q (not a trace, custom profile, or builtin benchmark)", mi, name)
			}
		}
	}
	return nil
}

// Resolve loads the referenced traces from traceDir and builds the
// per-core source mixes the sweep runs. Name resolution prefers traces,
// then inline profiles, then builtin benchmarks — validate rejects
// ambiguity up front, so the order never silently reinterprets a name.
func (w *WorkloadsSpec) Resolve(traceDir string) ([]workload.SourceMix, error) {
	byName := map[string]workload.Source{}
	byFile := map[string]*workload.Trace{} // each distinct file loads once
	for _, ts := range w.Traces {
		if traceDir == "" {
			return nil, fmt.Errorf("spec references trace %q but the server has no trace directory", ts.Name)
		}
		file := filepath.Base(ts.File)
		if tr, ok := byFile[file]; ok {
			byName[ts.Name] = tr
			continue
		}
		f, err := os.Open(filepath.Join(traceDir, file))
		if err != nil {
			// Report the bare file name, not the wrapped error: the
			// message reaches HTTP clients and must not leak the
			// server's trace-directory path.
			return nil, fmt.Errorf("trace %q: cannot open file %q in the trace directory", ts.Name, file)
		}
		tr, err := workload.ReadTrace(ts.Name, f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("trace %q (%s): %w", ts.Name, ts.File, err)
		}
		byFile[file] = tr
		byName[ts.Name] = tr
	}
	for _, ps := range w.Profiles {
		byName[ps.Name] = ps.profile()
	}
	mixes := make([]workload.SourceMix, len(w.Mixes))
	for mi, mix := range w.Mixes {
		mixes[mi] = workload.SourceMix{ID: mi, Sources: make([]workload.Source, len(mix))}
		for c, name := range mix {
			src, ok := byName[name]
			if !ok {
				p, err := workload.ProfileByName(name)
				if err != nil {
					return nil, fmt.Errorf("mix %d: %w", mi, err)
				}
				src = p
			}
			mixes[mi].Sources[c] = src
		}
	}
	return mixes, nil
}

// figureKinds maps a figure kind to which grids it consumes.
var figureKinds = map[string]struct{ caps, nrhs, xs bool }{
	KindFig9:  {caps: true},
	KindFig12: {nrhs: true},
	KindFig13: {caps: true, xs: true},
	KindFig14: {caps: true, xs: true},
	KindFig15: {nrhs: true, xs: true},
	KindFig16: {nrhs: true, xs: true},
}

// Validate checks the spec against the limits. A nil error means the
// scheduler can run the job as-is.
func (spec JobSpec) Validate(l Limits) error {
	l = l.withDefaults()
	if err := spec.validateTimeout(); err != nil {
		return err
	}
	switch spec.Kind {
	case KindFig9, KindFig12, KindFig13, KindFig14, KindFig15, KindFig16:
		uses := figureKinds[spec.Kind]
		if !uses.caps && spec.Capacities != nil {
			return fmt.Errorf("%s does not take a capacities grid", spec.Kind)
		}
		if !uses.nrhs && spec.NRHs != nil {
			return fmt.Errorf("%s does not take an nrhs grid", spec.Kind)
		}
		if !uses.xs && spec.Xs != nil {
			return fmt.Errorf("%s does not take a channel/rank axis (xs)", spec.Kind)
		}
		if err := validateGrid("capacities", spec.Capacities, l.MaxGrid, 1, 1024); err != nil {
			return err
		}
		if err := validateGrid("nrhs", spec.NRHs, l.MaxGrid, 1, 1<<20); err != nil {
			return err
		}
		if err := validateGrid("xs", spec.Xs, l.MaxGrid, 1, 16); err != nil {
			return err
		}
		if spec.Policies != nil || spec.Config != nil || spec.Charz != nil || spec.Attacks != nil {
			return fmt.Errorf("%s does not take policies, config, charz, or attacks", spec.Kind)
		}
		if err := spec.Sim.validate(l); err != nil {
			return err
		}
		if err := spec.Workloads.Validate(l, spec.Sim.options().WithDefaults().Cores); err != nil {
			return err
		}
		return spec.validateCost(l)
	case KindPolicies:
		if len(spec.Policies) == 0 {
			return fmt.Errorf("policies job needs at least one policy")
		}
		if len(spec.Policies) > l.MaxPolicies {
			return fmt.Errorf("%d policies exceeds the limit of %d", len(spec.Policies), l.MaxPolicies)
		}
		for i, p := range spec.Policies {
			if _, err := p.policy(); err != nil {
				return fmt.Errorf("policy %d: %w", i, err)
			}
		}
		if spec.Config != nil {
			if err := spec.Config.validate(); err != nil {
				return err
			}
		}
		if spec.Capacities != nil || spec.NRHs != nil || spec.Xs != nil || spec.Charz != nil || spec.Attacks != nil {
			return fmt.Errorf("policies does not take grids, charz, or attacks")
		}
		if err := spec.Sim.validate(l); err != nil {
			return err
		}
		if err := spec.Workloads.Validate(l, spec.Sim.options().WithDefaults().Cores); err != nil {
			return err
		}
		return spec.validateCost(l)
	case KindAttack:
		if spec.Capacities != nil || spec.Xs != nil || spec.Policies != nil ||
			spec.Config != nil || spec.Charz != nil {
			return fmt.Errorf("attack takes only the sim block, an nrhs grid, and an attacks list")
		}
		if spec.Workloads != nil {
			// The attack sweep builds its own mix: the attacker on core 0
			// hiding in builtin benign traffic on the rest.
			return fmt.Errorf("attack does not take a workloads object")
		}
		if err := validateGrid("nrhs", spec.NRHs, l.MaxGrid, 1, 1<<20); err != nil {
			return err
		}
		if spec.Attacks != nil && len(spec.Attacks) == 0 {
			return fmt.Errorf("attacks is empty; omit it to run every preset")
		}
		if len(spec.Attacks) > l.MaxGrid {
			return fmt.Errorf("attacks has %d entries, limit %d", len(spec.Attacks), l.MaxGrid)
		}
		known := map[string]bool{}
		for _, k := range sim.AttackKinds() {
			known[k] = true
		}
		for _, k := range spec.Attacks {
			if !known[k] {
				return fmt.Errorf("unknown attack %q (want one of %v)", k, sim.AttackKinds())
			}
		}
		if err := spec.Sim.validate(l); err != nil {
			return err
		}
		return spec.validateCost(l)
	case KindCharacterize:
		if spec.Sim != nil || spec.Capacities != nil || spec.NRHs != nil || spec.Xs != nil ||
			spec.Policies != nil || spec.Config != nil || spec.Workloads != nil || spec.Attacks != nil {
			return fmt.Errorf("characterize takes only the charz block")
		}
		return spec.Charz.validate()
	case KindSecurity, KindArea:
		if spec.Sim != nil || spec.Capacities != nil || spec.NRHs != nil || spec.Xs != nil ||
			spec.Policies != nil || spec.Config != nil || spec.Charz != nil || spec.Workloads != nil ||
			spec.Attacks != nil {
			return fmt.Errorf("%s takes no parameters", spec.Kind)
		}
		return nil
	case "":
		return fmt.Errorf("missing kind")
	default:
		return fmt.Errorf("unknown kind %q", spec.Kind)
	}
}

// validateCost bounds a simulation job's estimated total cost. Per-axis
// caps alone still admit specs whose product is days of compute, so the
// estimate multiplies the effective sweep points, the policies each
// point evaluates, the workload mixes, and the per-run tick count.
func (spec JobSpec) validateCost(l Limits) error {
	gridLen := func(xs []int, def int) int64 {
		if xs == nil {
			return int64(def)
		}
		return int64(len(xs))
	}
	var points, policies int64
	switch spec.Kind {
	case KindFig9:
		points, policies = gridLen(spec.Capacities, len(sim.Fig9Capacities())), 6
	case KindFig12:
		points, policies = gridLen(spec.NRHs, len(sim.Fig12NRHValues())), 6
	case KindFig13, KindFig14:
		points, policies = gridLen(spec.Capacities, 3)*gridLen(spec.Xs, len(sim.ScaleXValues())), 3
	case KindFig15, KindFig16:
		points, policies = gridLen(spec.NRHs, 3)*gridLen(spec.Xs, len(sim.ScaleXValues())), 3
	case KindPolicies:
		points, policies = 1, int64(len(spec.Policies))
	case KindAttack:
		attacks := int64(len(sim.AttackKinds()))
		if spec.Attacks != nil {
			attacks = int64(len(spec.Attacks))
		}
		points = attacks * gridLen(spec.NRHs, len(sim.AttackNRHValues()))
		policies = 4 // the zoo: Baseline, PARA, Graphene, RFM
	default:
		return nil
	}
	o := spec.Sim.options().WithDefaults()
	if spec.Workloads != nil {
		// An explicit workload set replaces the builtin mixes.
		o.Workloads = len(spec.Workloads.Mixes)
	}
	if spec.Kind == KindAttack {
		// The attack sweep always runs exactly one mix per point: the
		// attacker hiding in one benign mix.
		o.Workloads = 1
	}
	cost := points * policies * int64(o.Workloads) * int64(o.Warmup+o.Measure)
	if cost > l.MaxTotalTicks {
		return fmt.Errorf("estimated cost %d ticks (%d sweep points x %d policies x %d workloads x %d ticks/run) exceeds the limit of %d; shrink the grids, workloads, or tick counts",
			cost, points, policies, o.Workloads, o.Warmup+o.Measure, l.MaxTotalTicks)
	}
	return nil
}

func validateGrid(name string, xs []int, maxLen, min, max int) error {
	if xs != nil && len(xs) == 0 {
		// JSON `[]`. Omit the field for the paper defaults; an empty
		// grid would silently sweep nothing (or, worse, be mistaken for
		// "defaults" and launch the full paper sweep).
		return fmt.Errorf("%s is empty; omit it to take the defaults", name)
	}
	if len(xs) > maxLen {
		return fmt.Errorf("%s has %d entries, limit %d", name, len(xs), maxLen)
	}
	for _, x := range xs {
		if x < min || x > max {
			return fmt.Errorf("%s value %d outside [%d, %d]", name, x, min, max)
		}
	}
	return nil
}

func (s *SimSpec) validate(l Limits) error {
	if s == nil {
		return nil
	}
	if s.Workloads < 0 || s.Workloads > l.MaxWorkloads {
		return fmt.Errorf("workloads %d outside [0, %d]", s.Workloads, l.MaxWorkloads)
	}
	if s.Cores < 0 || s.Cores > l.MaxCores {
		return fmt.Errorf("cores %d outside [0, %d]", s.Cores, l.MaxCores)
	}
	if s.Warmup < 0 || s.Measure < 0 {
		return fmt.Errorf("negative tick counts")
	}
	if s.Warmup+s.Measure > l.MaxTicks {
		return fmt.Errorf("warmup+measure %d exceeds the limit of %d ticks", s.Warmup+s.Measure, l.MaxTicks)
	}
	if s.ForensicsRecorder && !s.Forensics {
		return fmt.Errorf("forensics_recorder requires forensics")
	}
	return nil
}

// options converts the spec to sim.Options. The engine-level fields
// (Parallelism, ResultDir) stay zero: jobs run on the server's shared
// engine, whose construction fixed them.
func (s *SimSpec) options() sim.Options {
	if s == nil {
		return sim.Options{}
	}
	return sim.Options{
		Workloads: s.Workloads, Cores: s.Cores,
		Warmup: s.Warmup, Measure: s.Measure, Seed: s.Seed,
		Forensics: s.Forensics, ForensicsRecorder: s.ForensicsRecorder,
	}
}

func (c *ConfigSpec) validate() error {
	if c.CapacityGbit < 0 || c.CapacityGbit > 1024 {
		return fmt.Errorf("capacity_gbit %d outside [0, 1024]", c.CapacityGbit)
	}
	if c.Channels < 0 || c.Channels > 16 || c.Ranks < 0 || c.Ranks > 16 {
		return fmt.Errorf("channels/ranks outside [0, 16]")
	}
	if c.SPTCoverage < 0 || c.SPTCoverage > 1 {
		return fmt.Errorf("spt_coverage %g outside [0, 1]", c.SPTCoverage)
	}
	return nil
}

// config converts the spec to a sim.Config (Cores and Seed are filled
// from the SimSpec by the sweep itself).
func (c *ConfigSpec) config() sim.Config {
	cfg := sim.DefaultConfig()
	if c == nil {
		return cfg
	}
	if c.CapacityGbit != 0 {
		cfg.ChipCapacityGbit = c.CapacityGbit
	}
	if c.Channels != 0 {
		cfg.Channels = c.Channels
	}
	if c.Ranks != 0 {
		cfg.Ranks = c.Ranks
	}
	if c.SPTCoverage != 0 {
		cfg.SPTCoverage = c.SPTCoverage
	}
	return cfg
}

// policy converts one PolicySpec to the sim policy it names.
func (p PolicySpec) policy() (sim.RefreshPolicy, error) {
	if p.Slack < 0 || p.Slack > 64 {
		return sim.RefreshPolicy{}, fmt.Errorf("slack %d outside [0, 64]", p.Slack)
	}
	if p.NRH < 0 || p.NRH > 1<<20 {
		return sim.RefreshPolicy{}, fmt.Errorf("nrh %d outside [0, 2^20]", p.NRH)
	}
	if p.Param < 0 || p.Param > 1<<20 {
		return sim.RefreshPolicy{}, fmt.Errorf("param %d outside [0, 2^20]", p.Param)
	}
	if p.Param != 0 && p.Type != "graphene" && p.Type != "rfm" {
		return sim.RefreshPolicy{}, fmt.Errorf("param only tunes the graphene and rfm types")
	}
	switch p.Type {
	case "norefresh":
		return sim.NoRefreshPolicy(), nil
	case "baseline":
		return sim.BaselinePolicy(), nil
	case "hira":
		return sim.HiRAPeriodicPolicy(p.Slack), nil
	case "para":
		if p.NRH == 0 {
			return sim.RefreshPolicy{}, fmt.Errorf("para needs an nrh")
		}
		return sim.PARAPolicy(p.NRH), nil
	case "para+hira":
		if p.NRH == 0 {
			return sim.RefreshPolicy{}, fmt.Errorf("para+hira needs an nrh")
		}
		return sim.PARAHiRAPolicy(p.NRH, p.Slack), nil
	case "graphene":
		if p.NRH == 0 {
			return sim.RefreshPolicy{}, fmt.Errorf("graphene needs an nrh")
		}
		return sim.GraphenePolicy(p.NRH, p.Param), nil
	case "rfm":
		if p.NRH == 0 && p.Param == 0 {
			return sim.RefreshPolicy{}, fmt.Errorf("rfm needs an nrh or an explicit param (RAAIMT)")
		}
		return sim.RFMPolicy(p.NRH, p.Param), nil
	default:
		return sim.RefreshPolicy{}, fmt.Errorf("unknown policy type %q", p.Type)
	}
}

// policies converts the spec's policy list.
func (spec JobSpec) policyList() ([]sim.RefreshPolicy, error) {
	out := make([]sim.RefreshPolicy, len(spec.Policies))
	for i, p := range spec.Policies {
		pol, err := p.policy()
		if err != nil {
			return nil, err
		}
		out[i] = pol
	}
	return out, nil
}

func (c *CharzSpec) validate() error {
	if c == nil {
		return nil
	}
	if c.RegionSize < 0 || c.RegionSize > 2048 {
		return fmt.Errorf("region_size %d outside [0, 2048]", c.RegionSize)
	}
	if c.RowAStride < 0 || c.RowBStride < 0 || c.NRHVictims < 0 || c.NRHVictims > 256 {
		return fmt.Errorf("negative strides or nrh_victims outside [0, 256]")
	}
	known := map[string]bool{}
	for _, m := range charz.TestedModules() {
		known[m.Label] = true
	}
	for _, label := range c.Modules {
		if !known[label] {
			return fmt.Errorf("unknown module %q", label)
		}
	}
	return nil
}

// modules resolves the module set a charz spec asks for.
func (c *CharzSpec) modules() []charz.Module {
	all := charz.TestedModules()
	if c == nil || len(c.Modules) == 0 {
		return all
	}
	want := map[string]bool{}
	for _, label := range c.Modules {
		want[label] = true
	}
	var out []charz.Module
	for _, m := range all {
		if want[m.Label] {
			out = append(out, m)
		}
	}
	return out
}

// charzOptions converts the spec to charz.Options, defaulting to a
// laptop-scale run rather than charz's own paper-scale defaults.
func (c *CharzSpec) charzOptions() charz.Options {
	opts := charz.Options{RegionSize: 512, NRHVictims: 8}
	if c == nil {
		return opts
	}
	if c.RegionSize != 0 {
		opts.RegionSize = c.RegionSize
	}
	if c.RowAStride != 0 {
		opts.RowAStride = c.RowAStride
	}
	if c.RowBStride != 0 {
		opts.RowBStride = c.RowBStride
	}
	if c.NRHVictims != 0 {
		opts.NRHVictims = c.NRHVictims
	}
	return opts
}
