// Command edged is the serving daemon: it hosts many independent online
// allocation sessions over HTTP, advancing each one slot by slot through
// the paper's regularization-based algorithm as prices and user
// locations are revealed, and exposes solver telemetry for scraping.
// See internal/serve for the API and DESIGN.md §9 for the architecture.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"edgealloc/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

func run(args []string, errw io.Writer) int {
	fs := flag.NewFlagSet("edged", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		addr        = fs.String("addr", "127.0.0.1:8080", "listen address")
		workers     = fs.Int("workers", 0, "max concurrent slot solves (0 = GOMAXPROCS)")
		queue       = fs.Int("queue", 0, "max solve requests waiting for a worker (0 = 4x workers)")
		sessionQ    = fs.Int("session-queue", 4, "max solve requests queued on one session")
		maxSessions = fs.Int("max-sessions", 256, "max live sessions")
		sessionTTL  = fs.Duration("session-ttl", 15*time.Minute, "evict sessions idle this long")
		stepTimeout = fs.Duration("step-timeout", 2*time.Minute, "per-slot solve deadline")
		drainWait   = fs.Duration("drain-wait", 30*time.Second, "shutdown grace for in-flight slots")
		fastmath    = fs.Bool("fastmath", false, "solve every session with the batch fast-math entropy kernels (costs agree with the exact path to 1e-8)")
		fastmath32  = fs.Bool("fastmath32", false, "with the fast-math kernels, store the ratio scratch in float32 (implies -fastmath)")
		shards      = fs.Int("shards", 0, "split every session's per-slot solve across this many user shards coordinated by consensus ADMM (0 = single program)")
		shardWkrs   = fs.String("shard-workers", "", "comma-separated shard-worker base URLs (cmd/edgeshard) to place every sharded session's blocks on over RPC; dead workers fold back to local solving (requires -shards)")
		incremental = fs.Bool("incremental", false, "solve every session's slots incrementally: re-solve only users whose attachment changed, gated by dual feasibility")
		incrTol     = fs.Float64("incremental-tol", 0, "relative dual-feasibility tolerance of the incremental gate (0 = package default)")
		snapDir     = fs.String("snapshot-dir", "", "keep one append-only snapshot log per session here (a header plus one record per committed slot): TTL eviction saves warm state to disk and a restarted daemon recovers every session found (empty = no persistence)")
		autosnap    = fs.Bool("autosnapshot", false, "append one record to the session's snapshot log after every committed slot, before the reply (crash loses at most the in-flight solve; requires -snapshot-dir)")
		logJSON     = fs.Bool("log-json", false, "emit JSON logs instead of text")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var handler slog.Handler = slog.NewTextHandler(errw, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(errw, nil)
	}
	log := slog.New(handler)

	srv := serve.New(serve.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		SessionQueue:   *sessionQ,
		MaxSessions:    *maxSessions,
		SessionTTL:     *sessionTTL,
		StepTimeout:    *stepTimeout,
		FastMath:       *fastmath,
		FastMathF32:    *fastmath32,
		Shards:         *shards,
		ShardWorkers:   splitCSV(*shardWkrs),
		Incremental:    *incremental,
		IncrementalTol: *incrTol,
		SnapshotDir:    *snapDir,
		Autosnapshot:   *autosnap,
		Logger:         log,
	})

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Info("edged listening", "addr", *addr)

	select {
	case err := <-errc:
		log.Error("listener failed", "err", err)
		return 1
	case <-ctx.Done():
	}

	log.Info("shutting down: draining in-flight slots", "grace", *drainWait)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	code := 0
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Error("drain incomplete", "err", err)
		code = 1
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(errw, "http shutdown:", err)
		code = 1
	}
	return code
}

// splitCSV splits a comma-separated flag value into its non-empty,
// whitespace-trimmed items (nil for an empty value).
func splitCSV(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
