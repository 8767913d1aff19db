// Command edgeshard is the shard worker: it hosts shard blocks pushed by
// coordinators (edgesim or edged running with -shards and
// -shard-workers) and runs their consensus x-steps over the shardrpc
// HTTP/JSON protocol (see internal/solver/shardrpc and DESIGN.md §7h).
// Workers are stateless across slots — every slot begins with a full
// spec push — so a worker can be killed and restarted at any time; the
// coordinator replays the warm state and the run continues.
//
// Usage:
//
//	edgeshard -addr 127.0.0.1:9711
//	edgesim -fig 2 -shards 4 -shard-workers http://127.0.0.1:9711
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

	"edgealloc/internal/core"
	"edgealloc/internal/solver/shardrpc"
	"edgealloc/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

func run(args []string, errw io.Writer) int {
	fs := flag.NewFlagSet("edgeshard", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		addr      = fs.String("addr", "127.0.0.1:9711", "listen address")
		drainWait = fs.Duration("drain-wait", 10*time.Second, "shutdown grace for in-flight solves")
		logJSON   = fs.Bool("log-json", false, "emit JSON logs instead of text")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(errw, "edgeshard: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	var handler slog.Handler = slog.NewTextHandler(errw, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(errw, nil)
	}
	log := slog.New(handler)

	registry := telemetry.NewRegistry()
	host := core.NewShardHost()
	mux := newMux(host, registry)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Info("edgeshard listening", "addr", *addr)

	select {
	case err := <-errc:
		log.Error("listener failed", "err", err)
		return 1
	case <-ctx.Done():
	}

	log.Info("shutting down: draining in-flight solves", "grace", *drainWait)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(errw, "http shutdown:", err)
		return 1
	}
	return 0
}

// newMux assembles the worker's HTTP surface: the shardrpc endpoints, a
// liveness probe reporting the hosted-block count, and the worker-side
// metrics in Prometheus text format.
func newMux(host *core.ShardHost, registry *telemetry.Registry) *http.ServeMux {
	blocks := registry.Gauge("edgealloc_shardworker_blocks",
		"Shard blocks currently hosted by this worker.")
	mux := http.NewServeMux()
	mux.Handle("/v1/shard/", shardrpc.NewServer(host))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "ok blocks=%d\n", host.Blocks())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		blocks.Set(float64(host.Blocks()))
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = registry.WritePrometheus(w)
	})
	return mux
}
