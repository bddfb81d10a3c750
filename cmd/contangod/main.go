// Command contangod serves the Contango synthesizer over HTTP: submit
// jobs and parameter-sweep batches, poll status, stream progress, fetch
// metrics, SVG renderings and persisted artifacts. See
// internal/service.Server for the API.
//
// With -data-dir the daemon is durable: finished results persist in a
// content-addressed store (a restart serves them as disk-backed cache
// hits), queued-but-unfinished jobs are journaled and re-run after a
// crash or redeploy, and SIGTERM drains gracefully — intake stops, jobs
// get a grace period, and whatever is still unfinished is journaled as
// pending for the next start.
//
// Observability: /metrics exposes the service's counters in the
// Prometheus text format, every job builds a flow trace served as its
// "trace" artifact, logs are structured (-log-format json flips them to
// JSON lines), and -debug-addr starts a side listener with the pprof
// profiling endpoints.
//
// Example:
//
//	contangod -addr :8080 -workers 4 -data-dir /var/lib/contango &
//	curl -s localhost:8080/api/v1/jobs -d '{"bench":"ispd09f22"}'
//	curl -s localhost:8080/api/v1/jobs/job-0001
//	curl -s localhost:8080/api/v1/jobs/job-0001/artifacts
//	curl -s localhost:8080/metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"contango/internal/corners"
	"contango/internal/flow"
	"contango/internal/obs"
	"contango/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "synthesis worker-pool size")
	cache := flag.Int("cache", 256, "result-cache entries in memory (negative disables caching)")
	queue := flag.Int("queue", 4096, "max queued jobs")
	parallel := flag.Int("parallel", 0, "per-job stage-simulation workers for jobs that don't set one (0 = GOMAXPROCS/workers)")
	plan := flag.String("plan", "", "default synthesis plan for jobs that don't set one (built-in name or plan spec; empty = paper)")
	cornerSpec := flag.String("corners", "", "default PVT corner set for jobs that don't set one (ispd09, pvt5, or mc:<n>:<seed>[:sigmas]; empty = ispd09)")
	maxWait := flag.Duration("max-wait", 0, "reject submissions when the estimated queue wait exceeds this (429 + Retry-After; 0 = no bound)")
	split := flag.Int("split", 0, "max corners per worker-slot tenure before a sweep yields to waiting jobs (0 = default 16, negative disables)")
	dataDir := flag.String("data-dir", "", "durable storage directory: persists results/logs/SVGs and recovers unfinished jobs across restarts (empty = in-memory only)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown grace period for in-flight jobs")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	debugAddr := flag.String("debug-addr", "", "optional side listener with pprof endpoints (/debug/pprof/) and /metrics (e.g. localhost:6060)")
	verbose := flag.Bool("v", false, "shorthand for -log-level debug (per-job lifecycle detail)")
	flag.Parse()

	level := *logLevel
	if *verbose {
		level = "debug"
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, level)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fail := func(err error) {
		logger.Error(err.Error())
		os.Exit(1)
	}

	if _, err := flow.ResolvePlan(*plan); err != nil {
		fail(err)
	}
	if err := corners.Validate(*cornerSpec); err != nil {
		fail(err)
	}
	cfg := service.Config{Workers: *workers, CacheEntries: *cache, QueueDepth: *queue,
		JobParallelism: *parallel, DefaultPlan: *plan, DefaultCorners: *cornerSpec,
		DataDir: *dataDir, Logger: logger, MaxQueueWait: *maxWait, SplitCorners: *split}
	svc, err := service.Open(cfg)
	if err != nil {
		fail(err)
	}
	if *dataDir != "" {
		// Recovery is worth a line even at info level: it explains why a
		// fresh process may already be running jobs.
		logger.Info("durable store open",
			"data_dir", *dataDir,
			"recovered_jobs", svc.Stats().RecoveredJobs)
	}
	srv := &http.Server{Addr: *addr, Handler: service.NewServer(svc)}

	if *debugAddr != "" {
		dm := http.NewServeMux()
		dm.HandleFunc("/debug/pprof/", pprof.Index)
		dm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dm.Handle("/metrics", svc.MetricsRegistry().Handler())
		go func() {
			logger.Info("debug listener up", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dm); err != nil {
				logger.Error("debug listener failed", "error", err.Error())
			}
		}()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-stop
		logger.Info("shutting down", "grace", drain.String())
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		// HTTP and service drain concurrently: srv.Shutdown blocks on
		// active handlers, and an SSE watcher of a running job only
		// disconnects once the service finishes that job — sequencing the
		// two would let one connected client burn the whole grace period
		// before any job got a chance to drain.
		httpDone := make(chan struct{})
		go func() {
			defer close(httpDone)
			_ = srv.Shutdown(ctx)
		}()
		// Graceful service stop: intake is closed, in-flight jobs get the
		// grace period, stragglers are journaled as pending so the next
		// start re-queues them.
		svc.Shutdown(ctx)
		<-httpDone
		_ = srv.Close() // drop any streaming connections that outlived the drain
		st := svc.Stats()
		logger.Info("final stats",
			"jobs", st.Jobs, "completed", st.Completed, "failed", st.Failed,
			"canceled", st.Canceled, "cache_hits", st.CacheHits, "disk_hits", st.DiskHits,
			"cache_misses", st.CacheMisses, "cache_evictions", st.CacheEvictions)
	}()

	logger.Info("contangod listening",
		"addr", *addr, "workers", *workers, "cache_entries", *cache)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fail(err)
	}
	// ListenAndServe returns as soon as Shutdown starts; wait for the drain,
	// pending-job journaling and worker-pool teardown to actually finish.
	<-drained
}
