// Command lvpd is the LVP experiment daemon: it serves the trace → annotate
// → simulate pipeline over HTTP as asynchronous jobs with a bounded queue,
// per-job timeouts, cancellation, NDJSON result streaming, and graceful
// drain on SIGINT/SIGTERM. See SERVING.md for the API.
//
// Usage:
//
//	lvpd -addr :8347
//	lvpd -addr :8347 -queue 32 -runners 4 -job-timeout 10m
//	lvpd -addr :8347 -access-log                     # structured request log
//	lvpd -addr :8347 -trace span,pipeline -trace-out events.jsonl
//	lvpd -addr :8347 -store-dir /var/lib/lvpd       # persistent result store
//
// Results served by lvpd are byte-identical to the same cells computed by
// lvpsim / exp.Suite directly: the daemon runs the same engine behind the
// same single-flight caches, shared across requests, with the
// content-addressed result store in front (see SERVING.md, "Result
// store").
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lvp/internal/dist"
	"lvp/internal/obs"
	"lvp/internal/serve"
	"lvp/internal/version"
)

func main() {
	var (
		addr         = flag.String("addr", ":8347", "listen address")
		queue        = flag.Int("queue", 16, "job queue depth (submissions beyond it get 429)")
		runners      = flag.Int("runners", 2, "jobs executed concurrently")
		workers      = flag.Int("workers", 0, "per-job cell fan-out bound (0 = GOMAXPROCS)")
		storeDir     = flag.String("store-dir", "", "persist the content-addressed result store under this directory (survives restarts)")
		storeEntries = flag.Int("store-entries", 0, "in-memory result-store LRU capacity (0 = default; store disabled only when both store flags are unset)")
		jobTimeout   = flag.Duration("job-timeout", 5*time.Minute, "default per-job timeout")
		maxTimeout   = flag.Duration("max-timeout", 30*time.Minute, "cap on client-requested job timeouts")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain bound before jobs are cancelled")
		retryAfter   = flag.Duration("retry-after", time.Second, "Retry-After hint on queue-full rejections")
		maxScale     = flag.Int("max-scale", 8, "largest accepted benchmark scale")
		accessLog    = flag.Bool("access-log", false, "log one structured line per HTTP request on stderr")
		traceFlag    = flag.String("trace", "", "comma-separated trace channels to enable (lvpt,lct,cvu,cache,sim,pipeline,span or 'all')")
		traceOut     = flag.String("trace-out", "", "write trace events (JSONL) to this file (default stderr)")
		flightSpans  = flag.Int("flight-spans", 0, "spans kept per job for /v1/jobs/{id}/timeline (0 = default)")
		showVersion  = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("lvpd"))
		return
	}

	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	metrics := obs.NewRegistry()
	cfg := serve.Config{
		QueueDepth:     *queue,
		Runners:        *runners,
		Workers:        *workers,
		DefaultTimeout: *jobTimeout,
		MaxTimeout:     *maxTimeout,
		RetryAfter:     *retryAfter,
		MaxScale:       *maxScale,
		FlightSpans:    *flightSpans,
		Metrics:        metrics,
	}

	if *storeDir != "" || *storeEntries > 0 {
		store, err := dist.NewStore(dist.StoreConfig{
			Entries: *storeEntries,
			Dir:     *storeDir,
			Metrics: metrics,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "lvpd: %v\n", err)
			os.Exit(2)
		}
		cfg.Store = store
	}
	if *accessLog {
		cfg.AccessLog = log
	}
	if *traceFlag != "" {
		mask, err := obs.ParseChannels(*traceFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lvpd: %v\n", err)
			os.Exit(2)
		}
		sink := os.Stderr
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "lvpd: %v\n", err)
				os.Exit(2)
			}
			defer f.Close()
			sink = f
		}
		cfg.Tracer = obs.NewTracer(sink, mask)
	}

	mgr := serve.NewManager(cfg)
	srv := &http.Server{
		Addr:    *addr,
		Handler: serve.NewHandler(mgr),
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Info("lvpd listening", "addr", *addr, "queue", *queue, "runners", *runners)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Error("lvpd server failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting, finish queued and in-flight jobs,
	// cancel whatever is left at the deadline.
	log.Info("lvpd draining", "timeout", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := mgr.Shutdown(drainCtx); err != nil {
		log.Warn("lvpd drain deadline hit; in-flight jobs cancelled", "err", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Warn("lvpd http shutdown", "err", err)
	}
	log.Info("lvpd stopped")
}
