// Command edgeload is the sustained-load harness for the serving tier:
// it drives a population of concurrent allocation sessions against an
// edged daemon (or an edgerouter front) open-loop at a sweep of offered
// slot-advance rates, reporting latency SLO percentiles (p50/p99/p999)
// per rate point. With -self it spins up an in-process edged so the
// sweep is self-contained. It explores where a deployment saturates; the
// repository's serving number (flagship-sized sessions, autosnapshot,
// timed from due time) is the serve_stream workload of
// `bash bench/run.sh`.
//
//	edgeload -self
//	edgeload -base http://127.0.0.1:8090 -rates 10,20,40 -step 10s
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"edgealloc/internal/loadgen"
	"edgealloc/internal/scenario"
	"edgealloc/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, outw, errw io.Writer) int {
	fs := flag.NewFlagSet("edgeload", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		base     = fs.String("base", "", "target base URL (edged or edgerouter); empty requires -self")
		self     = fs.Bool("self", false, "spin up an in-process edged on a loopback port and drive that")
		sessions = fs.Int("sessions", 32, "concurrent session population")
		users    = fs.Int("users", 6, "users per session instance (Rome scenario)")
		horizon  = fs.Int("horizon", 8, "slots per session before it is reborn")
		seed     = fs.Int64("seed", 1, "scenario seed")
		rates    = fs.String("rates", "10,20,40,80,160", "comma-separated offered rates (slot-advances/sec); the default spans the 1-vCPU saturation knee")
		step     = fs.Duration("step", 5*time.Second, "duration of each rate step")
		resolve  = fs.Bool("resolve", false, "treat -base as an edgerouter: resolve each session's owner via /admin/owner and dial it directly")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(errw, "edgeload:", err)
		return 1
	}
	if (*base == "") == !*self {
		return fail(fmt.Errorf("exactly one of -base or -self required"))
	}
	if *resolve && *self {
		return fail(fmt.Errorf("-resolve needs an edgerouter -base, not -self"))
	}

	rateList, err := parseRates(*rates)
	if err != nil {
		return fail(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	target := *base
	if *self {
		srv := serve.New(serve.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
		go func() { _ = httpSrv.Serve(ln) }()
		defer func() {
			shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = httpSrv.Shutdown(shutCtx)
			_ = srv.Close()
		}()
		target = "http://" + ln.Addr().String()
		fmt.Fprintln(errw, "edgeload: in-process edged at", target)
	}

	in, _, err := scenario.Rome(scenario.Config{Users: *users, Horizon: *horizon, Seed: *seed})
	if err != nil {
		return fail(fmt.Errorf("building instance: %w", err))
	}

	runner := &loadgen.Runner{
		Base:     target,
		Sessions: *sessions,
		Instance: in,
		Resolve:  *resolve,
	}
	if err := runner.Setup(ctx); err != nil {
		return fail(err)
	}
	defer runner.Teardown(context.Background())

	fmt.Fprintf(errw, "edgeload: %d sessions x (users=%d horizon=%d seed=%d), rates %v, %s/step\n",
		*sessions, *users, *horizon, *seed, rateList, *step)
	steps, err := runner.Sweep(ctx, rateList, *step)
	if err != nil {
		return fail(err)
	}
	loadgen.WriteStepTable(outw, steps)
	return 0
}

func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad rate %q (want positive numbers)", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no rates given")
	}
	return out, nil
}
