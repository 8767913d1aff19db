// Package serve implements the edged serving daemon: a long-running HTTP
// server hosting many independent allocation sessions, each advancing
// slot by slot through the paper's online algorithm (core.OnlineApprox)
// as price/attachment updates arrive.
//
// The API is JSON over HTTP (bodies reuse the internal/model codecs):
//
//	POST   /v1/sessions                create a session from an instance
//	GET    /v1/sessions                list live sessions
//	GET    /v1/sessions/{id}           session status + last solver diag
//	DELETE /v1/sessions/{id}           evict a session
//	POST   /v1/sessions/{id}/slots     reveal slot t and solve it (P2 step)
//	GET    /v1/sessions/{id}/schedule  schedule so far (model.Schedule codec)
//	GET    /v1/sessions/{id}/costs     accumulated P0 cost breakdown
//	GET    /metrics                    telemetry (Prometheus text; ?format=json)
//	GET    /healthz                    liveness
//
// Robustness model: slot solves run on a bounded worker pool shared by
// all sessions, with a bounded wait queue on top — requests beyond
// Workers+QueueDepth (or waiting longer than acquireWait) are rejected
// with 429 so overload degrades by shedding rather than by piling up
// goroutines. Each session solves at most one slot at a time and bounds
// its own queue (SessionQueue). Every solve runs under a per-request
// deadline (StepTimeout) whose context is polled between inner-solver iterations
// inside the solver, so a timed-out slot aborts promptly and leaves the
// session's warm state untouched — the same slot can simply be retried.
// Shutdown stops admitting work and drains in-flight solves. Idle
// sessions are evicted after SessionTTL.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"edgealloc/internal/core"
	"edgealloc/internal/telemetry"
)

// Config tunes the daemon. Zero values take the defaults documented on
// each field, which are stated nowhere else: edged binds its flags at 0.
// The metrics registry is not configured: New makes one, and
// Server.Registry returns it.
type Config struct {
	// Workers bounds concurrently running slot solves across all sessions
	// (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds how many solve requests may wait for a worker
	// slot beyond the ones running (default 4×Workers). Requests beyond
	// the bound are rejected with 429 immediately.
	QueueDepth int
	// SessionQueue bounds the solve requests queued on one session,
	// including the running one (default 4); more return 429.
	SessionQueue int
	// MaxSessions bounds live sessions (default 256); more return 429.
	MaxSessions int
	// SessionTTL evicts sessions idle this long (default 15m).
	SessionTTL time.Duration
	// StepTimeout is the per-slot solve deadline (default 2m). The
	// deadline context is plumbed into the solver loop, so an expired
	// slot aborts between inner-solver iterations with the warm state intact.
	StepTimeout time.Duration
	// Defaults are solver options every session created on this daemon
	// gets on top of its own. Only the tier fields core.Options.BindFlags
	// binds are consulted: the booleans OR with the session's, the numbers
	// take the larger. The merge runs once, at create, and its result is
	// what the session's snapshot header records, so a session restored
	// on another daemon stays on the solve path it was created on. Only
	// ShardWorkers — deployment addresses, never persisted — is read again
	// on restore: worker failures fold back to local solving, so a dead
	// worker slows sessions down without failing them.
	Defaults core.Options
	// SnapshotDir, when set, is where session snapshots persist, one
	// append-only log per session (header + a record per committed slot):
	// explicit POST …/snapshot calls bring the log current, TTL eviction
	// saves the warm state there instead of dropping it (a later request
	// for the session restores it transparently), and a restarted daemon
	// recovers every session found there. Empty disables persistence.
	SnapshotDir string
	// Autosnapshot appends one record to the session's log after every
	// committed slot, before the slot is acknowledged, so a crash loses at
	// most the in-flight solve. Requires SnapshotDir.
	Autosnapshot bool
	// Logger receives structured request/lifecycle logs (nil = silent).
	Logger *slog.Logger

	// now overrides time.Now in tests.
	now func() time.Time
	// hookSolveStart, when set, is invoked synchronously right before a
	// slot solve starts; tests use it to coordinate overload and drain
	// scenarios deterministically.
	hookSolveStart func(sessionID string)
	// hookPostLookup, when set, is invoked synchronously right after a
	// slot request resolves its session, before the solve is enqueued;
	// tests use it to interleave handlers with the TTL janitor.
	hookPostLookup func(sessionID string)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 && c.QueueDepth != -1 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.SessionQueue <= 0 {
		c.SessionQueue = 4
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 15 * time.Minute
	}
	if c.StepTimeout <= 0 {
		c.StepTimeout = 2 * time.Minute
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// queueDepth returns the configured wait-queue bound (-1 encodes zero).
func (c Config) queueDepth() int64 {
	if c.QueueDepth == -1 {
		return 0
	}
	return int64(c.QueueDepth)
}

// Server hosts the sessions and implements the HTTP API.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	registry *telemetry.Registry
	solver   *telemetry.SolverMetrics
	log      *slog.Logger

	sem     chan struct{} // worker slots
	waiting atomic.Int64  // requests queued for a worker slot

	mu       sync.Mutex
	sessions map[string]*session
	nextID   uint64

	// drainMu gates admission against shutdown: handlers hold a read
	// lock while registered in inflight, Shutdown takes the write lock to
	// flip draining, so no solve can slip in after the drain decision.
	drainMu  sync.RWMutex
	draining bool
	inflight sync.WaitGroup

	janitorStop chan struct{}
	janitorDone chan struct{}

	// serve-level instruments (session lifecycle and load shedding).
	mSessionsActive *telemetry.Gauge
	mSessionsTotal  *telemetry.Counter
	mEvictedTotal   *telemetry.Counter
	mSlotsTotal     *telemetry.Counter
	mRejected       *telemetry.CounterVec
	mSnapshots      *telemetry.CounterVec
	mSnapshotBytes  *telemetry.Counter
	mSnapshotErrors *telemetry.CounterVec
	mRestores       *telemetry.CounterVec
}

// New builds a server and starts its eviction janitor. Callers must
// Shutdown (or Close) it to stop the janitor.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := telemetry.NewRegistry()
	log := cfg.Logger
	if log == nil {
		log = slog.New(discardHandler{})
	}
	s := &Server{
		cfg:         cfg,
		mux:         http.NewServeMux(),
		registry:    reg,
		solver:      telemetry.NewSolverMetrics(reg),
		log:         log,
		sem:         make(chan struct{}, cfg.Workers),
		sessions:    map[string]*session{},
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
		mSessionsActive: reg.Gauge("edgealloc_serve_sessions_active",
			"Live allocation sessions."),
		mSessionsTotal: reg.Counter("edgealloc_serve_sessions_created_total",
			"Sessions created since start."),
		mEvictedTotal: reg.Counter("edgealloc_serve_sessions_evicted_total",
			"Sessions evicted by TTL or DELETE."),
		mSlotsTotal: reg.Counter("edgealloc_serve_slots_total",
			"Slots solved across all sessions."),
		mRejected: reg.CounterVec("edgealloc_serve_rejected_total",
			"Requests shed by backpressure, by reason.", "reason"),
		mSnapshots: reg.CounterVec("edgealloc_serve_snapshots_total",
			"Writes to session snapshot logs, by trigger (request, auto, evict); a log already current is not rewritten.", "reason"),
		mSnapshotBytes: reg.Counter("edgealloc_serve_snapshot_bytes_total",
			"Bytes written to session snapshot logs; per slot this is one record, whatever the slot index."),
		mSnapshotErrors: reg.CounterVec("edgealloc_serve_snapshot_errors_total",
			"Failed snapshot log writes, by kind (append, rewrite, evict); the next write rewrites the file whole.", "reason"),
		mRestores: reg.CounterVec("edgealloc_serve_restores_total",
			"Sessions restored from snapshots, by source (request, disk, recovery).", "source"),
	}
	s.routes()
	if cfg.SnapshotDir != "" {
		if n := s.recoverSnapshots(); n > 0 {
			s.log.Info("crash recovery complete", "sessions", n)
		}
	}
	go s.janitor()
	return s
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	s.mux.HandleFunc("GET /v1/sessions", s.handleList)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	s.mux.HandleFunc("POST /v1/sessions/{id}/slots", s.handlePostSlot)
	s.mux.HandleFunc("POST /v1/sessions/{id}/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("POST /v1/sessions/restore", s.handleRestore)
	s.mux.HandleFunc("GET /v1/sessions/{id}/schedule", s.handleSchedule)
	s.mux.HandleFunc("GET /v1/sessions/{id}/costs", s.handleCosts)
	s.mux.Handle("GET /metrics", s.registry.Handler())
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the registry the daemon records into.
func (s *Server) Registry() *telemetry.Registry { return s.registry }

// Shutdown stops admitting slot solves (503) and waits for every
// in-flight solve to drain, or for ctx to expire. The janitor is stopped
// either way; sessions stay readable (status/schedule/costs) until the
// process exits.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	alreadyDraining := s.draining
	s.draining = true
	s.drainMu.Unlock()
	if !alreadyDraining {
		close(s.janitorStop)
	}
	<-s.janitorDone

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.log.Info("shutdown complete: in-flight slots drained")
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown aborted with solves in flight: %w", ctx.Err())
	}
}

// Close is Shutdown with no drain deadline.
func (s *Server) Close() error { return s.Shutdown(context.Background()) }

// admit registers one unit of solve work against shutdown. The returned
// release must be called when the work finishes; ok is false when the
// server is draining.
func (s *Server) admit() (release func(), ok bool) {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		return nil, false
	}
	s.inflight.Add(1)
	return func() { s.inflight.Done() }, true
}

// acquireWait bounds how long an admitted request waits for a worker slot
// before it is rejected with 429.
const acquireWait = 10 * time.Second

// acquireWorker claims a worker slot, waiting in the bounded queue. The
// returned status is 0 on success, or the HTTP status to shed with.
func (s *Server) acquireWorker(ctx context.Context) (release func(), status int, reason string) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, 0, ""
	default:
	}
	if s.waiting.Add(1) > s.cfg.queueDepth() {
		s.waiting.Add(-1)
		return nil, http.StatusTooManyRequests, "queue-full"
	}
	defer s.waiting.Add(-1)
	timer := time.NewTimer(acquireWait)
	defer timer.Stop()
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, 0, ""
	case <-timer.C:
		return nil, http.StatusTooManyRequests, "queue-wait"
	case <-ctx.Done():
		return nil, http.StatusServiceUnavailable, "client-gone"
	}
}

// janitor evicts idle sessions on a timer until Shutdown.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	interval := s.cfg.SessionTTL / 4
	if interval < time.Second {
		interval = time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			s.evictIdle(s.cfg.now())
		case <-s.janitorStop:
			return
		}
	}
}

// evictIdle removes sessions whose last activity predates now−TTL.
// Sessions with queued work are never evicted. With SnapshotDir set the
// session's log is brought current first (evict-to-snapshot), so a
// returning client resumes instead of restarting; without it the state
// is dropped. This runs under the server-wide lock, which is why a log
// that is already current — every session under Autosnapshot — costs no
// write, and a stale one only the records it is missing.
//
// Eviction must not race an in-flight slot solve: a handler can pass
// lookup before we run and block on stepMu behind the janitor. TryLock
// skips sessions whose stepMu is held (they are busy, hence not idle),
// and holding stepMu across persist-and-delete means any handler that
// was waiting observes the evicted flag and fails with 410 instead of
// solving into an orphan whose warm state just went to disk.
func (s *Server) evictIdle(now time.Time) int {
	cutoff := now.Add(-s.cfg.SessionTTL)
	s.mu.Lock()
	defer s.mu.Unlock()
	evicted := 0
	for id, sess := range s.sessions {
		if !sess.idleSince(cutoff) {
			continue
		}
		if !sess.stepMu.TryLock() {
			continue // solve in flight; it refreshes lastUsed anyway
		}
		if s.cfg.SnapshotDir != "" {
			if err := s.persist(sess, "evict", nil); err != nil {
				// Keep the session rather than drop unsaved warm state.
				s.log.Error("evict-to-snapshot failed; keeping session",
					"session", id, "err", err)
				sess.stepMu.Unlock()
				continue
			}
		}
		sess.markEvicted()
		sess.stepMu.Unlock()
		delete(s.sessions, id)
		evicted++
		s.mEvictedTotal.Inc()
		s.log.Info("session evicted", "session", id, "reason", "ttl",
			"snapshotted", s.cfg.SnapshotDir != "")
	}
	s.mSessionsActive.Set(float64(len(s.sessions)))
	return evicted
}

// lookup finds a session by the request's {id} path value. A miss
// falls back to the session's persisted snapshot when SnapshotDir is
// configured, so TTL eviction (and a daemon restart) is transparent to
// returning clients.
func (s *Server) lookup(r *http.Request) (*session, string, bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess, ok := s.sessions[id]
	s.mu.Unlock()
	if !ok {
		sess, ok = s.restoreFromDisk(id)
	}
	return sess, id, ok
}

// reject sheds a request: counts it, sets Retry-After, and writes the
// error body.
func (s *Server) reject(w http.ResponseWriter, status int, reason, detail string) {
	s.mRejected.With(reason).Inc()
	w.Header().Set("Retry-After", "1")
	writeError(w, status, detail)
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeError writes the API's error shape.
func writeError(w http.ResponseWriter, status int, detail string) {
	writeJSON(w, status, map[string]string{"error": detail})
}

// discardHandler is a no-op slog handler for logger-less servers.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }
