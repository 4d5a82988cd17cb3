// Command hira-sim regenerates the paper's system-level performance
// figures: Fig. 9 (periodic refresh vs chip capacity), Fig. 12 (PARA
// preventive refresh vs RowHammer threshold), and the §10 sensitivity
// sweeps Figs. 13-16 (channels/ranks). Scale with -workloads and -ticks;
// the paper's scale is -workloads 125 with much longer runs.
//
// Sweeps run on the parallel experiment engine: -parallel sizes the
// worker pool (results are bit-identical at any setting) and -results
// persists per-cell JSON results, so an interrupted or extended sweep
// only simulates the delta on the next run.
//
// Workloads are pluggable: by default sweeps run -workloads random
// multiprogrammed SPEC mixes, but -trace replays recorded access traces
// (see -record, which captures a benchmark's synthetic stream to a
// replayable trace file) and -workload-spec runs the experiment
// service's workloads object (named mixes over builtin benchmarks,
// inline custom profiles, and trace references) from a JSON file, so
// CLI and HTTP sweeps over the same workloads share engine cells.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"

	"hira"
	"hira/internal/service"
	"hira/internal/workload"
)

var (
	exp        = flag.String("exp", "fig9", "experiment: fig9|fig12|fig13|fig14|fig15|fig16|attack")
	attacks    = flag.String("attacks", "", "comma-separated attacker presets for -exp attack (single,double,many,refsync,decoy; empty = all)")
	nrhs       = flag.String("nrhs", "", "comma-separated RowHammer thresholds for -exp attack (empty = builtin grid)")
	workloads  = flag.Int("workloads", 4, "number of multiprogrammed mixes")
	cores      = flag.Int("cores", 8, "cores per mix")
	ticks      = flag.Int("ticks", 120000, "measured memory-controller ticks per run")
	warmup     = flag.Int("warmup", 30000, "warmup ticks per run")
	seed       = flag.Uint64("seed", 1, "workload seed")
	parallel   = flag.Int("parallel", 0, "engine worker pool size (0 = one per CPU core)")
	results    = flag.String("results", "", "directory for per-cell JSON results (reused across runs)")
	snapIvl    = flag.Int("snap-interval", 0, "ticks between simulation checkpoints; rerunning with longer -ticks/-warmup then simulates only the delta (0 disables)")
	snapMax    = flag.Int64("snap-max-bytes", 0, "checkpoint store byte cap with oldest-first eviction (0 = 2 GiB on disk, 256 MiB in memory)")
	progress   = flag.Bool("progress", false, "print per-batch cell progress to stderr")
	forensics  = flag.Bool("forensics", false, "attach the RowHammer activation ledger; per-policy forensics summaries print after each table (and ride figure rows in -json)")
	forensicsR = flag.Bool("forensics-recorder", false, "arm the DRAM command flight recorder around top-threshold crossings (requires -forensics)")
	jsonOut    = flag.Bool("json", false, "emit figure rows as JSON (the experiment service's encoding)")
	cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memprofile = flag.String("memprofile", "", "write a heap profile (post-sweep) to this file")

	record   = flag.String("record", "", "record a benchmark's synthetic access stream to this trace file and exit")
	recordWL = flag.String("record-workload", "mcf", "builtin benchmark to record (with -record)")
	recordN  = flag.Int("record-accesses", 200000, "accesses to record (with -record)")
	traces   = flag.String("trace", "", "comma-separated trace files replayed as the workload set (dealt round-robin across cores and mixes)")
	wlSpec   = flag.String("workload-spec", "", "JSON file with a service-style workloads object (mixes/profiles/traces)")
	traceDir = flag.String("trace-dir", ".", "directory trace references in -workload-spec resolve against")
)

// customMixes builds the explicit workload set from -trace or
// -workload-spec; nil means the builtin SPEC mixes.
func customMixes() ([]hira.WorkloadMix, error) {
	switch {
	case *traces != "" && *wlSpec != "":
		return nil, fmt.Errorf("-trace and -workload-spec are mutually exclusive")
	case *traces != "":
		if *workloads < 1 || *cores < 1 {
			return nil, fmt.Errorf("-workloads and -cores must be positive")
		}
		var srcs []hira.Workload
		for _, path := range strings.Split(*traces, ",") {
			tr, err := hira.LoadTrace(strings.TrimSpace(path))
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "trace %s: %d accesses, sha256:%s\n", tr.Label(), tr.Len(), tr.Digest())
			srcs = append(srcs, tr)
		}
		// The round-robin deal is the same rule clients use when they
		// expand a trace list into explicit service mixes, so both paths
		// produce identical engine cells.
		return hira.RoundRobinWorkloadMixes(srcs, *workloads, *cores), nil
	case *wlSpec != "":
		data, err := os.ReadFile(*wlSpec)
		if err != nil {
			return nil, err
		}
		var ws service.WorkloadsSpec
		if err := json.Unmarshal(data, &ws); err != nil {
			return nil, fmt.Errorf("%s: %w", *wlSpec, err)
		}
		if err := ws.Validate(service.Limits{}, *cores); err != nil {
			return nil, fmt.Errorf("%s: %w", *wlSpec, err)
		}
		return ws.Resolve(*traceDir)
	}
	return nil, nil
}

// recordTrace captures -record-accesses of the named builtin benchmark's
// stream (under -seed) into -record.
func recordTrace() error {
	p, err := workload.ProfileByName(*recordWL)
	if err != nil {
		return err
	}
	tr, err := workload.Record(filepath.Base(*record), p, *seed, *recordN)
	if err != nil {
		return err
	}
	if err := workload.WriteTraceFile(*record, tr.Accesses()); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "recorded %d accesses of %s (seed %d) to %s\nsha256:%s\n",
		tr.Len(), *recordWL, *seed, *record, tr.Digest())
	return nil
}

// engineStats accumulates cache/simulation tallies across the experiment.
var engineStats hira.EngineStats

// progressOpen tracks whether the \r progress line still needs a
// terminating newline (a batch that aborts never reaches done == total).
var progressOpen bool

func endProgressLine() {
	if progressOpen {
		fmt.Fprintln(os.Stderr)
		progressOpen = false
	}
}

// mixSet is the resolved -trace/-workload-spec workload set (nil for
// builtin mixes), computed once in run().
var mixSet []hira.WorkloadMix

func opts() hira.SimOptions {
	o := hira.SimOptions{
		Workloads: *workloads, Cores: *cores, Measure: *ticks, Warmup: *warmup, Seed: *seed,
		Mixes: mixSet, Parallelism: *parallel, ResultDir: *results, Stats: &engineStats,
		SnapInterval: *snapIvl, SnapMaxBytes: *snapMax,
		Forensics: *forensics, ForensicsRecorder: *forensicsR,
	}
	if *progress {
		o.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rcells %d/%d", done, total)
			progressOpen = done != total
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	return o
}

func names[T any](ws map[string]T) []string {
	out := make([]string, 0, len(ws))
	for n := range ws {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// forensicsBlock prints one sweep row's per-policy forensics summaries,
// prefixed with the row's x-axis label. No-op when the row carries none.
func forensicsBlock(label string, fx map[string]*hira.ForensicsSummary) {
	for _, n := range names(fx) {
		f := fx[n]
		t := f.Tally
		fmt.Printf("%s %-11s maxACT=%-6d cross%v=%v useful=%d wasted=%d periodic=%d piggyback=%d+%d",
			label, n, f.MaxInterrefACTs, f.Thresholds, t.Crossings[:len(f.Thresholds)],
			t.PreventiveUseful, t.PreventiveWasted, t.PeriodicRowRefreshes,
			t.PiggybackPreventive, t.PiggybackPeriodic)
		if len(f.Events) > 0 || f.DroppedEvents > 0 {
			fmt.Printf(" events=%d dropped=%d", len(f.Events), f.DroppedEvents)
		}
		fmt.Println()
	}
}

// forensicsSection prints the forensics blocks of a whole figure, one row
// per (x-axis point, policy); rows without forensics contribute nothing.
func forensicsSection(print func()) {
	if !*forensics {
		return
	}
	fmt.Println("\n== RowHammer forensics (measured phase, summed across mixes) ==")
	print()
}

func fig9(ctx context.Context) error {
	rows, err := hira.Fig9(ctx, opts(), nil)
	if err != nil {
		return err
	}
	fmt.Println("== Fig. 9a: weighted speedup normalized to No Refresh ==")
	hdr := names(rows[0].NormNoRefresh)
	fmt.Printf("%-8s", "cap")
	for _, n := range hdr {
		fmt.Printf("%11s", n)
	}
	fmt.Println()
	for _, r := range rows {
		fmt.Printf("%5dGb ", r.CapacityGbit)
		for _, n := range hdr {
			fmt.Printf("%11.3f", r.NormNoRefresh[n])
		}
		fmt.Println()
	}
	fmt.Println("\n== Fig. 9b: weighted speedup normalized to Baseline ==")
	for _, r := range rows {
		fmt.Printf("%5dGb ", r.CapacityGbit)
		for _, n := range hdr {
			fmt.Printf("%11.3f", r.NormBaseline[n])
		}
		fmt.Println()
	}
	fmt.Println("paper @128Gb: baseline 26.3% below No Refresh; HiRA-2 +12.6% over baseline")
	forensicsSection(func() {
		for _, r := range rows {
			forensicsBlock(fmt.Sprintf("%5dGb ", r.CapacityGbit), r.Forensics)
		}
	})
	return nil
}

func fig12(ctx context.Context) error {
	rows, err := hira.Fig12(ctx, opts(), nil)
	if err != nil {
		return err
	}
	hdr := names(rows[0].NormBaseline)
	fmt.Println("== Fig. 12a: weighted speedup normalized to Baseline (no defense) ==")
	fmt.Printf("%-8s", "NRH")
	for _, n := range hdr {
		fmt.Printf("%11s", n)
	}
	fmt.Println()
	for _, r := range rows {
		fmt.Printf("%7d ", r.NRH)
		for _, n := range hdr {
			fmt.Printf("%11.3f", r.NormBaseline[n])
		}
		fmt.Println()
	}
	fmt.Println("\n== Fig. 12b: weighted speedup normalized to PARA ==")
	for _, r := range rows {
		fmt.Printf("%7d ", r.NRH)
		for _, n := range hdr {
			fmt.Printf("%11.3f", r.NormPARA[n])
		}
		fmt.Println()
	}
	fmt.Println("paper @NRH=64: PARA 96% overhead; HiRA-4 3.73x over PARA")
	forensicsSection(func() {
		for _, r := range rows {
			forensicsBlock(fmt.Sprintf("%7d ", r.NRH), r.Forensics)
		}
	})
	return nil
}

func scale(rows []hira.ScaleRow, xName, pName string, err error) error {
	if err != nil {
		return err
	}
	hdr := names(rows[0].WS)
	fmt.Printf("%-6s %-8s", pName, xName)
	for _, n := range hdr {
		fmt.Printf("%11s", n)
	}
	fmt.Println()
	for _, r := range rows {
		fmt.Printf("%6d %8d", r.Param, r.X)
		for _, n := range hdr {
			fmt.Printf("%11.3f", r.WS[n])
		}
		fmt.Println()
	}
	forensicsSection(func() {
		for _, r := range rows {
			forensicsBlock(fmt.Sprintf("%6d %8d", r.Param, r.X), r.Forensics)
		}
	})
	return nil
}

// attackList parses -attacks; nil means every builtin preset.
func attackList() []string {
	if *attacks == "" {
		return nil
	}
	return strings.Split(*attacks, ",")
}

// attackNRHs parses -nrhs; nil means the builtin grid
// (hira.AttackNRHValues).
func attackNRHs() ([]int, error) {
	if *nrhs == "" {
		return nil, nil
	}
	parts := strings.Split(*nrhs, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad -nrhs value %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func attackExp(ctx context.Context) error {
	grid, err := attackNRHs()
	if err != nil {
		return err
	}
	rows, err := hira.AttackSweep(ctx, opts(), attackList(), grid)
	if err != nil {
		return err
	}
	hdr := names(rows[0].WS)
	fmt.Println("== Attack x mitigation: weighted speedup normalized to Baseline (no defense) ==")
	fmt.Printf("%-9s %-6s", "attack", "NRH")
	for _, n := range hdr {
		fmt.Printf("%11s", n)
	}
	fmt.Println()
	for _, r := range rows {
		fmt.Printf("%-9s %6d", r.Attack, r.NRH)
		for _, n := range hdr {
			fmt.Printf("%11.3f", r.NormBaseline[n])
		}
		fmt.Println()
	}
	// The sweep's deliverable: per-point efficacy. A policy defends the
	// point when no victim's exposure reaches NRH.
	fmt.Println("\n== Mitigation efficacy: max victim exposure (! = reached NRH, attack succeeded) ==")
	fmt.Printf("%-9s %-6s", "attack", "NRH")
	for _, n := range hdr {
		fmt.Printf("%11s", n)
	}
	fmt.Println()
	for _, r := range rows {
		fmt.Printf("%-9s %6d", r.Attack, r.NRH)
		for _, n := range hdr {
			fx := r.Forensics[n]
			if fx == nil {
				fmt.Printf("%11s", "-")
				continue
			}
			mark := " "
			if fx.MaxVictimExposure >= uint32(r.NRH) {
				mark = "!"
			}
			fmt.Printf("%10d%s", fx.MaxVictimExposure, mark)
		}
		fmt.Println()
	}
	forensicsSection(func() {
		for _, r := range rows {
			forensicsBlock(fmt.Sprintf("%-9s %6d", r.Attack, r.NRH), r.Forensics)
		}
	})
	return nil
}

func main() {
	flag.Parse()
	// run does the work so deferred profile flushes survive error exits
	// (os.Exit would skip them and leave a truncated CPU profile).
	os.Exit(run())
}

func run() int {
	if *exp != "attack" && (*attacks != "" || *nrhs != "") {
		fmt.Fprintln(os.Stderr, "-attacks and -nrhs only apply to -exp attack")
		return 2
	}
	if *record != "" {
		if err := recordTrace(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}
	if *forensicsR && !*forensics {
		fmt.Fprintln(os.Stderr, "-forensics-recorder requires -forensics")
		return 2
	}
	var err error
	if mixSet, err = customMixes(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}
	// Ctrl-C cancels the sweep through the engine's context, stopping
	// in-flight cells promptly; the result store stays consistent, so a
	// re-run with the same -results picks up where this one stopped.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *jsonOut {
		var res *hira.FigureResult
		var err error
		if *exp == "attack" && (*attacks != "" || *nrhs != "") {
			// The Figure dispatcher runs every preset over the builtin
			// grid; an explicit -attacks/-nrhs list needs the direct call.
			var rows []hira.AttackRow
			var grid []int
			if grid, err = attackNRHs(); err == nil {
				rows, err = hira.AttackSweep(ctx, opts(), attackList(), grid)
			}
			if err == nil {
				res = &hira.FigureResult{Kind: "attack", Attack: rows}
				if st := opts().Stats; st != nil {
					res.Stats = *st
				}
			}
		} else {
			res, err = hira.Figure(ctx, *exp, opts(), nil, nil)
		}
		endProgressLine()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}

	switch *exp {
	case "fig9":
		err = fig9(ctx)
	case "fig12":
		err = fig12(ctx)
	case "fig13":
		fmt.Println("== Fig. 13: channel sweep, periodic refresh (absolute WS) ==")
		rows, e := hira.Fig13(ctx, opts(), nil, nil)
		err = scale(rows, "chans", "capGb", e)
	case "fig14":
		fmt.Println("== Fig. 14: rank sweep, periodic refresh (absolute WS) ==")
		rows, e := hira.Fig14(ctx, opts(), nil, nil)
		err = scale(rows, "ranks", "capGb", e)
	case "fig15":
		fmt.Println("== Fig. 15: channel sweep, PARA (absolute WS) ==")
		rows, e := hira.Fig15(ctx, opts(), nil, nil)
		err = scale(rows, "chans", "NRH", e)
	case "fig16":
		fmt.Println("== Fig. 16: rank sweep, PARA (absolute WS) ==")
		rows, e := hira.Fig16(ctx, opts(), nil, nil)
		err = scale(rows, "ranks", "NRH", e)
	case "attack":
		err = attackExp(ctx)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		return 2
	}
	endProgressLine()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "engine: %d cells (%d simulated of which %d resumed, %d cache hits, %d store hits, %d deduped)\n",
		engineStats.Submitted, engineStats.Simulated, engineStats.Resumed,
		engineStats.CacheHits, engineStats.StoreHits, engineStats.Deduped)
	if engineStats.StoreErrors > 0 {
		fmt.Fprintf(os.Stderr, "warning: %d cell results could not be persisted to -results %s (%s)\n",
			engineStats.StoreErrors, *results, engineStats.FirstStoreError)
	}
	return 0
}
