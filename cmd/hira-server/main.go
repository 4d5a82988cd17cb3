// Command hira-server serves the paper's experiments as an HTTP job
// service. Clients POST job specs — figure sweeps with arbitrary
// capacity/NRH/channel grids, direct policy evaluations,
// characterization, security-analysis, and area-model runs — and the
// server executes them on a bounded scheduler over one shared experiment
// engine, so concurrent clients asking overlapping questions share
// simulations instead of repeating them. Pair with -results to make the
// cell store durable across restarts.
//
// Endpoints:
//
//	POST   /v1/jobs             submit a job spec, returns the queued job
//	GET    /v1/jobs             list jobs (results elided)
//	GET    /v1/jobs/{id}        job status; result once done
//	GET    /v1/jobs/{id}/stream server-sent events: progress + final state
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/jobs/{id}/trace  per-job span timeline (?format=chrome for chrome://tracing)
//	GET    /v1/stats            shared-engine tallies and job counts
//	GET    /healthz             liveness (also /v1/healthz)
//	GET    /readyz              readiness: degraded stores, saturated queue, shutdown
//	GET    /metrics             Prometheus exposition of engine/store/job metrics
//
// Pair with -journal to make live jobs durable: a server restarted over
// the same journal re-validates and re-enqueues every job that was
// queued or running when it died, and (with -results) those jobs resume
// from the warm result and checkpoint stores instead of starting over.
//
// The -faults flag (or HIRA_FAULTS) arms deterministic storage-fault
// injection for chaos drills: comma-separated site:kind[:prob[:count]]
// rules, e.g. "store.write:enospc" or "snap.read:corrupt:0.5". See
// internal/fault for sites and kinds. Injection only corrupts what the
// process reads or writes through the armed sites — never data at rest.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"time"

	"hira/internal/fault"
	"hira/internal/service"
	"hira/internal/sim"
	"hira/internal/telemetry"
)

var (
	addr      = flag.String("addr", ":8080", "listen address")
	results   = flag.String("results", "", "content-addressed cell store directory (durable across restarts)")
	parallel  = flag.Int("parallel", 0, "max concurrent cell simulations across all jobs (0 = one per CPU core)")
	workers   = flag.Int("workers", 2, "max concurrently executing jobs")
	queue     = flag.Int("queue", 64, "max queued jobs before submissions get 503")
	traceDir  = flag.String("traces", "", "directory of recorded trace files job specs may reference (empty rejects trace workloads)")
	snapIvl   = flag.Int("snap-interval", 10000, "ticks between simulation checkpoints; resubmitting a sweep with longer horizons then simulates only the delta (0 disables; differential checkpoints keep fine intervals cheap)")
	snapMax   = flag.Int64("snap-max-bytes", 0, "checkpoint store byte cap with oldest-first eviction (0 = 2 GiB on disk, 256 MiB in memory)")
	journal   = flag.String("journal", "", "durable live-job journal file; restarted servers re-enqueue interrupted jobs from it")
	faults    = flag.String("faults", "", "storage fault-injection rules, comma-separated site:kind[:prob[:count]] (env HIRA_FAULTS)")
	faultSeed = flag.Uint64("fault-seed", 1, "seed for probabilistic fault rules (env HIRA_FAULT_SEED)")
	pprofFlag = flag.Bool("pprof", false, "mount net/http/pprof profiling handlers under /debug/pprof/")
	quiet     = flag.Bool("quiet", false, "suppress structured job lifecycle logs on stderr")
)

// faultFS builds the fault-injection seam from -faults/-fault-seed,
// falling back to the HIRA_FAULTS / HIRA_FAULT_SEED environment (so CI
// chaos jobs can arm a stock binary without touching its argv). Returns
// nil — the plain OS filesystem — when no rules are armed.
func faultFS() (fault.FS, error) {
	spec := *faults
	if spec == "" {
		spec = os.Getenv("HIRA_FAULTS")
	}
	if spec == "" {
		return nil, nil
	}
	seed := *faultSeed
	if env := os.Getenv("HIRA_FAULT_SEED"); env != "" && *faultSeed == 1 {
		v, err := strconv.ParseUint(env, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("HIRA_FAULT_SEED: %v", err)
		}
		seed = v
	}
	inj, err := fault.Parse(spec, seed)
	if err != nil {
		return nil, err
	}
	if inj == nil {
		return nil, nil
	}
	fmt.Fprintf(os.Stderr, "fault injection armed: %s (seed %d)\n", spec, seed)
	return inj, nil
}

func main() {
	flag.Parse()
	os.Exit(run())
}

func run() int {
	reg := telemetry.NewRegistry()
	reg.RegisterProcessMetrics()
	var logger *slog.Logger
	if !*quiet {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	fsys, err := faultFS()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	svc := service.New(service.Config{
		Engine: sim.EngineConfig{
			Parallelism:  *parallel,
			ResultDir:    *results,
			SnapInterval: *snapIvl,
			SnapMaxBytes: *snapMax,
			FS:           fsys,
		},
		Workers:     *workers,
		QueueDepth:  *queue,
		TraceDir:    *traceDir,
		JournalPath: *journal,
		Telemetry:   reg,
		Logger:      logger,
	})
	defer svc.Close()

	handler := svc.Handler()
	if *pprofFlag {
		// Profiling rides an outer mux so the service API stays unaware
		// of it: /debug/pprof/ only exists when explicitly enabled.
		outer := http.NewServeMux()
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
		outer.Handle("/", handler)
		handler = outer
	}
	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "hira-server listening on %s (workers=%d, parallel=%d, store=%q)\n",
		*addr, *workers, svc.Engine().Parallelism(), *results)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "shutting down")
		// Finalize jobs first: running jobs cancel and every open SSE
		// stream receives its terminal event and returns, so Shutdown's
		// wait for active connections completes promptly instead of
		// timing out against handlers pinned to still-running jobs.
		svc.Close()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutdownCtx)
	}
	return 0
}
