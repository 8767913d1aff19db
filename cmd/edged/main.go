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
	"syscall"
	"time"

	"edgealloc/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// options is everything the command line sets: the listener's own knobs
// and the daemon configuration the flags bind straight into.
type options struct {
	addr      string
	drainWait time.Duration
	logJSON   bool
	cfg       serve.Config
}

// newFlagSet declares edged's flags over o. The solve-tier flags are
// core.Options' own (BindFlags), bound into the daemon's session defaults.
func newFlagSet(o *options, errw io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("edged", flag.ContinueOnError)
	fs.SetOutput(errw)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8080", "listen address")
	fs.IntVar(&o.cfg.Workers, "workers", 0, "max concurrent slot solves (0 = GOMAXPROCS)")
	fs.IntVar(&o.cfg.QueueDepth, "queue", 0, "max solve requests waiting for a worker (0 = 4x workers)")
	fs.IntVar(&o.cfg.SessionQueue, "session-queue", 0, "max solve requests queued on one session (0 = 4)")
	fs.IntVar(&o.cfg.MaxSessions, "max-sessions", 0, "max live sessions (0 = 256)")
	fs.DurationVar(&o.cfg.SessionTTL, "session-ttl", 0, "evict sessions idle this long (0 = 15m)")
	fs.DurationVar(&o.cfg.StepTimeout, "step-timeout", 0, "per-slot solve deadline (0 = 2m)")
	fs.DurationVar(&o.drainWait, "drain-wait", 30*time.Second, "shutdown grace for in-flight slots")
	o.cfg.Defaults.BindFlags(fs)
	fs.StringVar(&o.cfg.SnapshotDir, "snapshot-dir", "", "keep one append-only snapshot log per session here (a header plus one record per committed slot): TTL eviction saves warm state to disk and a restarted daemon recovers every session found (empty = no persistence)")
	fs.BoolVar(&o.cfg.Autosnapshot, "autosnapshot", false, "append one record to the session's snapshot log after every committed slot, before the reply (crash loses at most the in-flight solve; requires -snapshot-dir)")
	fs.BoolVar(&o.logJSON, "log-json", false, "emit JSON logs instead of text")
	return fs
}

func run(args []string, errw io.Writer) int {
	var o options
	if err := newFlagSet(&o, errw).Parse(args); err != nil {
		return 2
	}
	// A flag that does nothing without another is a mistake, not a no-op;
	// the tier flags are checked, by field and flag, by core.Options.
	if o.cfg.Autosnapshot && o.cfg.SnapshotDir == "" {
		fmt.Fprintln(errw, "edged: -autosnapshot requires -snapshot-dir")
		return 2
	}
	if err := o.cfg.Defaults.Validate(); err != nil {
		fmt.Fprintf(errw, "edged: %v\n", err)
		return 2
	}

	var handler slog.Handler = slog.NewTextHandler(errw, nil)
	if o.logJSON {
		handler = slog.NewJSONHandler(errw, nil)
	}
	log := slog.New(handler)
	o.cfg.Logger = log
	srv := serve.New(o.cfg)

	httpSrv := &http.Server{
		Addr:              o.addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Info("edged listening", "addr", o.addr)

	select {
	case err := <-errc:
		log.Error("listener failed", "err", err)
		return 1
	case <-ctx.Done():
	}

	log.Info("shutting down: draining in-flight slots", "grace", o.drainWait)
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainWait)
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
