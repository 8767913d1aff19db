package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"edgealloc/internal/conform"
	"edgealloc/internal/core"
	"edgealloc/internal/model"
	"edgealloc/internal/solver/alm"
)

// maxBodyBytes bounds request bodies; instances are the largest payload
// (time-major price/attachment arrays) and stay far below this.
const maxBodyBytes = 256 << 20

// session is one independent run of the online algorithm. Two locks
// split its state: mu guards the cheap bookkeeping handlers read, and
// stepMu serializes the slot solves (held across the whole solve, so a
// session processes one slot at a time while status and costs stay
// responsive) and everything else that reads the algorithm: snapshots,
// and the view of its decision log GET /schedule takes. The session keeps
// no decision of its own.
type session struct {
	id  string
	srv *Server
	// inst and alg are touched only under stepMu after creation; the
	// solve writes streamed slot data into inst's time-major arrays.
	inst *model.Instance
	alg  *core.OnlineApprox
	// streaming means the instance was created from a skeleton plus a
	// horizon, so every posted slot must carry its own data.
	streaming bool
	// header is the session's snapshot header line — id, horizon, solver
	// options and the create request's instance, everything a restore
	// needs to rebuild the same algorithm — rendered once at creation (or
	// kept from the snapshot the session was restored from).
	header []byte

	stepMu sync.Mutex
	// logOK says SnapshotDir/<id> holds the header and exactly the
	// records of slots [0, logSlots), so newer slots can be appended to
	// it; when false the next persist writes the file whole. recBuf is the
	// buffer appends encode their records into, kept across slots. All
	// three are touched only under stepMu.
	logOK    bool
	logSlots int
	recBuf   []byte

	mu     sync.Mutex
	queued int // solve requests enqueued, including the running one
	// evicted marks a session removed from the server's map while a
	// handler may still hold a reference to it: the handler must fail
	// with 410 instead of solving into (or snapshotting) an orphan whose
	// warm state the server has already persisted or dropped.
	evicted  bool
	lastUsed time.Time
	next     int // next slot to solve; written under both locks
	done     bool
	meta     []slotMeta // per-slot costs and solver diagnostics
	costs    model.Breakdown
	total    float64 // weighted P0 cost so far
	summary  *conformSummary
}

// touch refreshes the TTL clock.
func (s *session) touch(now time.Time) {
	s.mu.Lock()
	s.lastUsed = now
	s.mu.Unlock()
}

// idleSince reports whether the session has no queued work and was last
// used before the cutoff.
func (s *session) idleSince(cutoff time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued == 0 && s.lastUsed.Before(cutoff)
}

// tryEnqueue claims a slot-solve queue position; false means the
// session's queue bound is hit.
func (s *session) tryEnqueue(limit int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.queued >= limit {
		return false
	}
	s.queued++
	return true
}

func (s *session) dequeue() {
	s.mu.Lock()
	s.queued--
	s.mu.Unlock()
}

// markEvicted flags the session as removed from the server's map.
func (s *session) markEvicted() {
	s.mu.Lock()
	s.evicted = true
	s.mu.Unlock()
}

// isEvicted reports whether the session was evicted after this handler
// looked it up.
func (s *session) isEvicted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted
}

// --- wire types ---------------------------------------------------------

// solverOptions is the client-settable subset of core.Options (and of its
// inner alm.Options) as the HTTP API and the snapshot header spell it.
// core.Options documents each field (coreOptions is the mapping); zero
// values take the package defaults. DESIGN.md §9 tabulates option, wire
// key and CLI flag; TestWireOptionsGolden pins the key set.
type solverOptions struct {
	Epsilon1       float64 `json:"epsilon1,omitempty"`
	Epsilon2       float64 `json:"epsilon2,omitempty"`
	Candidates     int     `json:"candidates,omitempty"`
	CandidateTol   float64 `json:"candidateTol,omitempty"`
	FastMath       bool    `json:"fastMath,omitempty"`
	Shards         int     `json:"shards,omitempty"`
	Incremental    bool    `json:"incremental,omitempty"`
	IncrementalTol float64 `json:"incrementalTol,omitempty"`
	MaxOuter       int     `json:"maxOuter,omitempty"`
	InnerIters     int     `json:"innerIters,omitempty"`
	Workers        int     `json:"workers,omitempty"`
	FeasTol        float64 `json:"feasTol,omitempty"`
	ObjTol         float64 `json:"objTol,omitempty"`
	DualTol        float64 `json:"dualTol,omitempty"`
	Penalty        float64 `json:"penalty,omitempty"`
}

// withDefaults merges the creating daemon's tier defaults into a session's
// options: bool OR, numeric max. It runs once, in handleCreate; what it
// returns is what the snapshot header records.
func (o solverOptions) withDefaults(d core.Options) solverOptions {
	o.FastMath = o.FastMath || d.FastMath
	o.Shards = max(o.Shards, d.Shards)
	o.Incremental = o.Incremental || d.Incremental
	o.IncrementalTol = math.Max(o.IncrementalTol, d.IncrementalTol)
	return o
}

// coreOptions is the wire form as the core.Options it stands for.
func (o solverOptions) coreOptions() core.Options {
	return core.Options{
		Epsilon1:       o.Epsilon1,
		Epsilon2:       o.Epsilon2,
		Candidates:     o.Candidates,
		CandidateTol:   o.CandidateTol,
		FastMath:       o.FastMath,
		Shards:         o.Shards,
		Incremental:    o.Incremental,
		IncrementalTol: o.IncrementalTol,
		Solver: alm.Options{
			MaxOuter:   o.MaxOuter,
			InnerIters: o.InnerIters,
			Workers:    o.Workers,
			FeasTol:    o.FeasTol,
			ObjTol:     o.ObjTol,
			DualTol:    o.DualTol,
			Penalty:    o.Penalty,
		},
	}
}

// newAlg builds a session's algorithm from its effective options — the
// create-time merge, or a snapshot header as it stands. What belongs to
// this server rather than to the session is added here: the metrics bundle
// and, for a sharded session, the shard-worker addresses.
func (s *Server) newAlg(inst *model.Instance, o solverOptions) *core.OnlineApprox {
	opts := o.coreOptions()
	opts.Metrics = s.solver
	if opts.Shards > 0 {
		opts.ShardWorkers = s.cfg.Defaults.ShardWorkers
	}
	return core.NewOnlineApprox(inst, opts)
}

// createRequest creates a session. Instance is either a complete
// model.Instance (replay mode: all time-major data present up front) or
// a skeleton with T omitted plus Horizon set (streaming mode: every
// posted slot carries its own prices and attachments). ID, when set,
// names the session (path-safe [A-Za-z0-9._-], unique); router
// deployments use client ids so a session's placement is a pure
// function of its name.
type createRequest struct {
	ID       string          `json:"id,omitempty"`
	Instance json.RawMessage `json:"instance"`
	Horizon  int             `json:"horizon,omitempty"`
	Options  solverOptions   `json:"options,omitempty"`
}

type createResponse struct {
	ID        string `json:"id"`
	I         int    `json:"i"`
	J         int    `json:"j"`
	Horizon   int    `json:"horizon"`
	Streaming bool   `json:"streaming"`
}

// slotRequest reveals slot data and asks for the slot's solve. In
// replay mode all data fields are optional overrides; in streaming mode
// opPrice and attach are required (accessDelay defaults to zeros).
type slotRequest struct {
	// Slot, when set, must equal the next unsolved slot; it exists so
	// clients can detect lost ordering instead of silently advancing.
	Slot              *int      `json:"slot,omitempty"`
	OpPrice           []float64 `json:"opPrice,omitempty"`
	Attach            []int     `json:"attach,omitempty"`
	AccessDelay       []float64 `json:"accessDelay,omitempty"`
	IncludeAllocation bool      `json:"includeAllocation,omitempty"`
}

// solveDiag is core.StepDiag on the wire. Every slot carries the candidate
// fields of its certified loop: one round over I·J pairs on the default
// tier. The wall-clock fields (Seconds and the three phases) are what the
// session measured; a snapshot record stores none, so a restored session
// reports 0 for the slots it did not solve itself.
type solveDiag struct {
	Seconds         float64 `json:"seconds"`
	OuterIterations int     `json:"outerIterations"`
	InnerIterations int     `json:"innerIterations"`
	Converged       bool    `json:"converged"`
	CandidateRounds int     `json:"candidateRounds,omitempty"`
	CandidatePairs  int     `json:"candidateExpandedPairs,omitempty"`
	CandidateNNZ    int     `json:"candidateNNZ,omitempty"`
	ShardIterations int     `json:"shardIterations,omitempty"`
	ShardResidual   float64 `json:"shardResidual,omitempty"`
	ShardRestored   float64 `json:"shardRestored,omitempty"`
	FrozenUsers     int     `json:"frozenUsers,omitempty"`
	ReadmittedUsers int     `json:"readmittedUsers,omitempty"`
	// Stop names how the slot's final single-program solve ended
	// ("converged", or the test failing at the outer cap: "feasibility",
	// "objective", "dual"), Residual is its last σ and Stationarity the
	// projected-gradient norm it left, relative to 1+|L|; all three are
	// absent when no such solve ran (sharded sessions, all-frozen slots).
	Stop         alm.Stop `json:"stop,omitempty"`
	Residual     float64  `json:"residual,omitempty"`
	Stationarity float64  `json:"stationarity,omitempty"`
	// DualSteps and DualRefused count the slot's multiplier updates that
	// took the solver's second-order step and those that refused it on a
	// singular system; the rest were first order.
	DualSteps   int `json:"dualSteps,omitempty"`
	DualRefused int `json:"dualRefused,omitempty"`
	// The slot's phases beside Seconds (core.StepDiag): binding the slot's
	// coefficients before the solve, pricing and gating within it, and
	// committing the decision after it.
	BindSeconds    float64 `json:"bindSeconds,omitempty"`
	CertifySeconds float64 `json:"certifySeconds,omitempty"`
	CommitSeconds  float64 `json:"commitSeconds,omitempty"`
}

func diagDTO(d core.StepDiag) solveDiag {
	return solveDiag{
		Seconds:         d.Seconds,
		OuterIterations: d.Outer,
		InnerIterations: d.Inner,
		Converged:       d.Converged,
		CandidateRounds: d.CandRounds,
		CandidatePairs:  d.CandExpanded,
		CandidateNNZ:    d.CandNNZ,
		ShardIterations: d.ShardIters,
		ShardResidual:   d.ShardResidual,
		ShardRestored:   d.ShardRestored,
		FrozenUsers:     d.FrozenUsers,
		ReadmittedUsers: d.ReadmittedUsers,
		Stop:            d.Stop,
		Residual:        d.Residual,
		Stationarity:    d.Stationarity,
		DualSteps:       d.DualSteps,
		DualRefused:     d.DualRefused,
		BindSeconds:     d.BindSeconds,
		CertifySeconds:  d.CertifySeconds,
		CommitSeconds:   d.CommitSeconds,
	}
}

// slotCost is the slot's unweighted component costs plus weighted
// totals (this slot and the run so far).
type slotCost struct {
	Op        float64 `json:"op"`
	Sq        float64 `json:"sq"`
	Rc        float64 `json:"rc"`
	Mg        float64 `json:"mg"`
	SlotTotal float64 `json:"slotTotal"`
	RunTotal  float64 `json:"runTotal"`
}

type slotResponse struct {
	Session     string          `json:"session"`
	Slot        int             `json:"slot"`
	Done        bool            `json:"done"`
	Cost        slotCost        `json:"cost"`
	Solve       solveDiag       `json:"solve"`
	Phases      *slotPhases     `json:"phases,omitempty"`
	Allocation  []float64       `json:"allocation,omitempty"`
	Conformance *conformSummary `json:"conformance,omitempty"`
}

// slotPhases is where the handler spent a slot's wall time outside the
// solve, whose own phases are solve's bind, solve and commit seconds. No
// two of the seven overlap, and together they cover the handler's time
// from the request's arrival to the reply but for the step's bookkeeping
// around its phases and a log line: decoding (the session lookup and
// reading and parsing the body), waiting (admission, the session queue,
// stepMu, validating and applying the slot's data, and a solver worker),
// recording (the slot's cost and bookkeeping, and on the final slot the
// conformance check) and persisting (the autosnapshot append; absent
// without one). The snapshot does not keep them.
type slotPhases struct {
	DecodeSeconds  float64 `json:"decodeSeconds"`
	WaitSeconds    float64 `json:"waitSeconds"`
	RecordSeconds  float64 `json:"recordSeconds"`
	PersistSeconds float64 `json:"persistSeconds,omitempty"`
}

// conformSummary is the oracle's verdict for a completed session.
type conformSummary struct {
	OK           bool           `json:"ok"`
	Violations   map[string]int `json:"violations,omitempty"`
	RatioBound   float64        `json:"ratioBound,omitempty"`
	LowerBoundP0 float64        `json:"lowerBoundP0,omitempty"`
}

type statusResponse struct {
	ID            string          `json:"id"`
	I             int             `json:"i"`
	J             int             `json:"j"`
	Horizon       int             `json:"horizon"`
	NextSlot      int             `json:"nextSlot"`
	Done          bool            `json:"done"`
	Streaming     bool            `json:"streaming"`
	WeightedTotal float64         `json:"weightedTotal"`
	LastSolve     *solveDiag      `json:"lastSolve,omitempty"`
	Conformance   *conformSummary `json:"conformance,omitempty"`
}

type costsResponse struct {
	Session       string   `json:"session"`
	Slots         int      `json:"slots"`
	Cost          slotCost `json:"cost"` // run-level: components + weighted total
	WeightedTotal float64  `json:"weightedTotal"`
}

// --- handlers -----------------------------------------------------------

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	return decodeJSON(w, http.MaxBytesReader(w, r.Body, maxBodyBytes), v)
}

// decodeJSON decodes the JSON value body starts with into v, refusing
// unknown fields; on failure it writes the 400.
func decodeJSON(w http.ResponseWriter, body io.Reader, v any) bool {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return false
	}
	return true
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit()
	if !ok {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	defer release()

	var req createRequest
	inst, ok := decodeCreate(w, r, &req)
	if !ok {
		return
	}
	fast := inst != nil
	if len(req.Instance) == 0 {
		writeError(w, http.StatusBadRequest, "missing instance")
		return
	}
	if err := req.Options.coreOptions().Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.ID != "" {
		if err := validSessionID(req.ID); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	if !fast {
		var err error
		if inst, err = decodeInstance(req.Instance); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	streaming, err := completeInstance(inst, req.Horizon)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	id := req.ID
	if id == "" {
		s.mu.Lock()
		s.nextID++
		id = fmt.Sprintf("s-%d", s.nextID)
		s.mu.Unlock()
	}
	// The header records the effective options, so every later restore
	// rebuilds this algorithm whatever the restoring daemon's defaults. The
	// defaults can complete a pair of tiers the request alone does not name.
	opts := req.Options.withDefaults(s.cfg.Defaults)
	if err := opts.coreOptions().Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	header, err := createHeader(snapHeader{Version: snapshotVersion, ID: id,
		Horizon: req.Horizon, Options: opts, Instance: req.Instance}, fast)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	_, created, err := s.register(&session{
		id:        id,
		srv:       s,
		inst:      inst,
		alg:       s.newAlg(inst, opts),
		streaming: streaming,
		header:    header,
		lastUsed:  s.cfg.now(),
	})
	if err != nil {
		s.reject(w, http.StatusTooManyRequests, "sessions-full", err.Error())
		return
	}
	if !created {
		writeError(w, http.StatusConflict, "session "+id+" already exists")
		return
	}

	s.log.Info("session created", "session", id,
		"clouds", inst.I, "users", inst.J, "horizon", inst.T, "streaming", streaming)
	writeJSON(w, http.StatusCreated, createResponse{
		ID: id, I: inst.I, J: inst.J, Horizon: inst.T, Streaming: streaming,
	})
}

// decodeInstance decodes a create payload's or snapshot header's instance
// with encoding/json, the path of any instance model.ParseInstance does
// not take.
func decodeInstance(raw json.RawMessage) (*model.Instance, error) {
	inst := new(model.Instance)
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(inst); err != nil {
		return nil, fmt.Errorf("decoding instance: %w", err)
	}
	return inst, nil
}

// completeInstance readies a decoded instance for its session and
// validates it. An instance with T present is replay mode and must
// validate as-is; one without T is a streaming skeleton whose time-major
// arrays are zero-filled over the given horizon.
func completeInstance(inst *model.Instance, horizon int) (streaming bool, err error) {
	streaming = inst.T == 0
	if streaming {
		if horizon <= 0 {
			return false, errors.New("streaming instance (no T) requires horizon > 0")
		}
		if len(inst.OpPrice) != 0 || len(inst.Attach) != 0 || len(inst.AccessDelay) != 0 {
			return false, errors.New("streaming instance must omit opPrice/attach/accessDelay")
		}
		inst.T = horizon
		inst.OpPrice = make([][]float64, horizon)
		inst.Attach = make([][]int, horizon)
		inst.AccessDelay = make([][]float64, horizon)
		for t := 0; t < horizon; t++ {
			inst.OpPrice[t] = make([]float64, inst.I)
			inst.Attach[t] = make([]int, inst.J)
			inst.AccessDelay[t] = make([]float64, inst.J)
		}
	} else if horizon != 0 && horizon != inst.T {
		return false, fmt.Errorf("horizon %d conflicts with instance T=%d", horizon, inst.T)
	}
	if err := inst.Validate(); err != nil {
		return false, err
	}
	return streaming, nil
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ids := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"sessions": ids})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	sess, id, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session "+id)
		return
	}
	sess.touch(s.cfg.now())
	sess.mu.Lock()
	resp := statusResponse{
		ID:            sess.id,
		I:             sess.inst.I,
		J:             sess.inst.J,
		Horizon:       sess.inst.T,
		NextSlot:      sess.next,
		Done:          sess.done,
		Streaming:     sess.streaming,
		WeightedTotal: sess.total,
		Conformance:   sess.summary,
	}
	if sess.next > 0 {
		d := diagDTO(sess.meta[sess.next-1].Diag)
		resp.LastSolve = &d
	}
	sess.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
		s.mEvictedTotal.Inc()
	}
	s.mSessionsActive.Set(float64(len(s.sessions)))
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session "+id)
		return
	}
	sess.markEvicted()
	// DELETE is an intentional discard: drop the persisted snapshot too,
	// so the session cannot resurrect through the disk fallback.
	s.removeSnapshot(id)
	s.log.Info("session evicted", "session", id, "reason", "delete")
	w.WriteHeader(http.StatusNoContent)
}

// handleSchedule streams the session's decisions from its decision log.
// The view of the log is taken under stepMu and walked after it is
// released: committed records are never written again, so a slow reader
// holds up no slot, and sees the slots committed when it asked.
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	sess, id, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session "+id)
		return
	}
	sess.touch(s.cfg.now())
	sess.stepMu.Lock()
	decisions := sess.alg.Decisions()
	sess.stepMu.Unlock()
	if decisions.Len() == 0 {
		writeError(w, http.StatusConflict, "no slots solved yet")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := model.WriteScheduleWalk(w, decisions.Walk); err != nil {
		s.log.Error("encoding schedule", "session", id, "err", err)
	}
}

func (s *Server) handleCosts(w http.ResponseWriter, r *http.Request) {
	sess, id, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session "+id)
		return
	}
	sess.touch(s.cfg.now())
	sess.mu.Lock()
	resp := costsResponse{
		Session: sess.id,
		Slots:   sess.next,
		Cost: slotCost{
			Op: sess.costs.Op, Sq: sess.costs.Sq,
			Rc: sess.costs.Rc, Mg: sess.costs.Mg,
			RunTotal: sess.total,
		},
		WeightedTotal: sess.total,
	}
	sess.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePostSlot(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sess, id, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session "+id)
		return
	}
	if s.cfg.hookPostLookup != nil {
		s.cfg.hookPostLookup(id)
	}
	var req slotRequest
	releaseBody, ok := decodeSlot(w, r, &req)
	if !ok {
		return
	}
	defer releaseBody()
	decoded := time.Now()
	phases := &slotPhases{DecodeSeconds: decoded.Sub(start).Seconds()}

	release, admitted := s.admit()
	if !admitted {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	defer release()
	sess.touch(s.cfg.now())

	if !sess.tryEnqueue(s.cfg.SessionQueue) {
		s.reject(w, http.StatusTooManyRequests, "session-queue",
			fmt.Sprintf("session %s queue limit %d reached", id, s.cfg.SessionQueue))
		return
	}
	defer sess.dequeue()

	sess.stepMu.Lock()
	defer sess.stepMu.Unlock()

	// The TTL janitor may have evicted the session (persisting its warm
	// state) between our lookup and taking stepMu; solving now would
	// advance an orphan the server no longer knows. 410 tells the client
	// to retry, which transparently restores from the snapshot.
	if sess.isEvicted() {
		writeError(w, http.StatusGone, "session evicted; retry to restore it from its snapshot")
		return
	}

	sess.mu.Lock()
	t, done := sess.next, sess.done
	sess.mu.Unlock()
	if done {
		writeError(w, http.StatusConflict, "session horizon complete")
		return
	}
	if req.Slot != nil && *req.Slot != t {
		writeError(w, http.StatusConflict,
			fmt.Sprintf("slot %d out of order, next is %d", *req.Slot, t))
		return
	}
	if err := sess.applySlotData(t, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	releaseWorker, status, reason := s.acquireWorker(r.Context())
	if status != 0 {
		s.reject(w, status, reason, "no solver capacity, retry later")
		return
	}
	defer releaseWorker()
	if s.cfg.hookSolveStart != nil {
		s.cfg.hookSolveStart(id)
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.StepTimeout)
	defer cancel()
	stepStart := time.Now()
	phases.WaitSeconds = stepStart.Sub(decoded).Seconds()
	if _, err := sess.alg.StepCtx(ctx, t); err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			status = http.StatusGatewayTimeout
		case errors.Is(err, context.Canceled):
			status = http.StatusServiceUnavailable
		}
		s.log.Warn("slot solve failed", "session", id, "slot", t, "err", err)
		writeError(w, status, err.Error())
		return
	}
	stepped := time.Now()
	s.mSlotsTotal.Inc()

	resp := sess.recordSlot(t, s.cfg.now())
	if req.IncludeAllocation {
		// The committed decision's view, valid until the session's next
		// Step: the reply is written before the deferred stepMu unlock.
		_, cur := sess.alg.Transition()
		resp.Allocation = cur.X
	}
	if resp.Done {
		resp.Conformance = sess.finish()
	}
	recorded := time.Now()
	phases.RecordSeconds = recorded.Sub(stepped).Seconds()
	// The append lands before the reply is written, so an acknowledged
	// slot is in the log.
	if s.cfg.SnapshotDir != "" && s.cfg.Autosnapshot {
		if err := s.persist(sess, "auto", nil); err != nil {
			s.log.Error("autosnapshot", "session", id, "slot", t, "err", err)
		}
		phases.PersistSeconds = time.Since(recorded).Seconds()
	}
	resp.Phases = phases
	d := sess.alg.LastStepDiag()
	s.log.Info("slot solved", "session", id, "slot", t,
		"seconds", d.Seconds, "outer", d.Outer, "inner", d.Inner, "converged", d.Converged)
	writeJSON(w, http.StatusOK, resp)
}

// applySlotData validates the revealed slot data and writes it into the
// instance's time-major arrays. Called under stepMu.
func (sess *session) applySlotData(t int, req *slotRequest) error {
	in := sess.inst
	if sess.streaming && (req.OpPrice == nil || req.Attach == nil) {
		return errors.New("streaming session requires opPrice and attach per slot")
	}
	if req.OpPrice != nil {
		if len(req.OpPrice) != in.I {
			return fmt.Errorf("len(opPrice)=%d, want %d", len(req.OpPrice), in.I)
		}
		for i, v := range req.OpPrice {
			if !(v >= 0) || math.IsInf(v, 0) {
				return fmt.Errorf("opPrice[%d]=%g must be finite and nonnegative", i, v)
			}
		}
	}
	if req.Attach != nil {
		if len(req.Attach) != in.J {
			return fmt.Errorf("len(attach)=%d, want %d", len(req.Attach), in.J)
		}
		for j, l := range req.Attach {
			if l < 0 || l >= in.I {
				return fmt.Errorf("attach[%d]=%d out of [0,%d)", j, l, in.I)
			}
		}
	}
	if req.AccessDelay != nil {
		if len(req.AccessDelay) != in.J {
			return fmt.Errorf("len(accessDelay)=%d, want %d", len(req.AccessDelay), in.J)
		}
		for j, v := range req.AccessDelay {
			if !(v >= 0) || math.IsInf(v, 0) {
				return fmt.Errorf("accessDelay[%d]=%g must be finite and nonnegative", j, v)
			}
		}
	}
	if req.OpPrice != nil {
		copy(in.OpPrice[t], req.OpPrice)
	}
	if req.Attach != nil {
		copy(in.Attach[t], req.Attach)
	}
	if req.AccessDelay != nil {
		copy(in.AccessDelay[t], req.AccessDelay)
	}
	return nil
}

// recordSlot folds slot t's decision, which StepCtx has just committed,
// into the session bookkeeping and builds the response. Called under
// stepMu. The slot is priced from the algorithm's views of the transition
// it committed, so no schedule is built for it.
func (sess *session) recordSlot(t int, now time.Time) *slotResponse {
	in := sess.inst
	prev, cur := sess.alg.Transition()
	slotB := in.SlotCost(t, prev, cur)
	slotTotal := in.Total(slotB)

	diag := sess.alg.LastStepDiag()

	sess.mu.Lock()
	sess.meta = append(sess.meta, slotMeta{Cost: slotB, Diag: diag})
	sess.next = t + 1
	sess.done = sess.next == in.T
	sess.costs.Add(slotB)
	sess.total += slotTotal
	sess.lastUsed = now
	resp := &slotResponse{
		Session: sess.id,
		Slot:    t,
		Done:    sess.done,
		Cost: slotCost{
			Op: slotB.Op, Sq: slotB.Sq, Rc: slotB.Rc, Mg: slotB.Mg,
			SlotTotal: slotTotal,
			RunTotal:  sess.total,
		},
		Solve: diagDTO(diag),
	}
	sess.mu.Unlock()
	return resp
}

// finish runs the paper-conformance oracle over the completed run,
// cross-checking the dual certificate and Theorem-2 ratio; both read the
// decisions by walking the algorithm's log. Findings are
// recorded as metrics and structured log lines; the session itself stays
// queryable either way. Called under stepMu on the final slot.
func (sess *session) finish() *conformSummary {
	diag := &conform.Diagnostics{RatioBound: sess.alg.CompetitiveRatioBound()}
	if cert, err := sess.alg.Certificate(); err == nil {
		diag.HasCertificate = true
		diag.LowerBoundP0 = cert.LowerBoundP0()
		diag.LowerBoundP1 = cert.LowerBoundP1()
		diag.DualResidual = cert.Feasibility.Max()
		diag.NuCharge = cert.NuCharge
	}
	report := conform.CheckWalk(sess.inst, sess.alg.Decisions().Walk, diag, conform.Options{})
	summary := &conformSummary{
		OK:           report.OK(),
		RatioBound:   diag.RatioBound,
		LowerBoundP0: diag.LowerBoundP0,
	}
	if counts := report.Counts(); counts != nil {
		summary.Violations = make(map[string]int, len(counts))
		for kind, n := range counts {
			summary.Violations[string(kind)] = n
			for k := 0; k < n; k++ {
				sess.srv.solver.CountViolation(string(kind))
			}
		}
		report.Log(sess.srv.log, "session "+sess.id)
	}
	sess.mu.Lock()
	sess.summary = summary
	sess.mu.Unlock()
	return summary
}
