package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"edgealloc/internal/model"
)

// tmpPrefix starts the name of every temp file a whole-file write leaves
// in SnapshotDir until its rename. Session ids cannot start with a dot,
// so a temp file is never mistaken for a session and boot recovery can
// sweep the ones a crash orphaned.
const tmpPrefix = ".tmp-"

// record views committed slot t, whose decision is x, as a snapshot
// record aliasing the live instance, decision and dual record. The caller
// must hold stepMu.
func (sess *session) record(t int, x []float64) slotRecord {
	rec := slotRecord{
		opPrice:     sess.inst.OpPrice[t],
		attach:      sess.inst.Attach[t],
		accessDelay: sess.inst.AccessDelay[t],
		x:           x,
		duals:       sess.alg.Duals()[t],
		slotMeta:    sess.meta[t],
	}
	if t == sess.inst.T-1 {
		rec.Summary = sess.summary
	}
	return rec
}

// appendRecords appends the records of the committed slots from on. The
// last committed slot's decision is the algorithm's view of it; older ones
// — a whole-file write, or an append after a failed one — come from one
// walk of the algorithm's decision log. The caller must hold stepMu.
func (sess *session) appendRecords(b []byte, from int) ([]byte, error) {
	var err error
	if from == sess.next-1 {
		_, cur := sess.alg.Transition()
		rec := sess.record(from, cur.X)
		return appendRecord(b, &rec)
	}
	sess.alg.Decisions().Walk(func(t int, x model.Alloc) bool {
		if t >= from {
			rec := sess.record(t, x.X)
			b, err = appendRecord(b, &rec)
		}
		return err == nil
	})
	return b, err
}

// encode renders the session's whole snapshot: the header and one record
// per committed slot. The caller must hold stepMu.
func (sess *session) encode() ([]byte, error) {
	return sess.appendRecords(slices.Clone(sess.header), 0)
}

// restoreSession rebuilds a session from a decoded snapshot: the
// algorithm is built from the header's options alone (the effective ones,
// merged with the creating daemon's defaults at create) and takes its warm
// state through core's validating RestoreState, the slot inputs go back
// into the instance through the same validation a posted slot gets, and
// the cost bookkeeping is re-accumulated in commit order, so it lands on
// the same floats. The returned session is not yet registered.
func (s *Server) restoreSession(d *snapDoc) (*session, error) {
	alg := s.newAlg(d.inst, d.header.Options)
	st := d.warmState()
	if err := alg.RestoreState(st); err != nil {
		return nil, err
	}
	sess := &session{
		id:        d.header.ID,
		srv:       s,
		inst:      d.inst,
		alg:       alg,
		streaming: d.streaming,
		header:    slices.Clone(d.raw),
		lastUsed:  s.cfg.now(),
		next:      st.Slot,
		done:      st.Slot == d.inst.T,
	}
	for t, rec := range d.records {
		req := slotRequest{OpPrice: rec.opPrice, Attach: rec.attach, AccessDelay: rec.accessDelay}
		if err := sess.applySlotData(t, &req); err != nil {
			return nil, fmt.Errorf("record %d: %w", t, err)
		}
		sess.meta = append(sess.meta, slotMeta{Cost: rec.Cost, Diag: rec.Diag})
		sess.costs.Add(rec.Cost)
		sess.total += d.inst.Total(rec.Cost)
		sess.summary = rec.Summary
	}
	return sess, nil
}

// restore decodes a snapshot, rebuilds its session and registers it.
// fileID is empty for a request body; for the log file of session fileID
// the header must name that id, a torn tail is tolerated, and a log
// without one keeps being appended to: the codec is canonical, so the
// file is byte for byte what encode would write. On an id collision the
// live session wins and is returned with restored=false.
func (s *Server) restore(doc []byte, fileID string) (sess *session, restored bool, err error) {
	fromFile := fileID != ""
	d, err := decodeSnapshot(doc, fromFile)
	if err != nil {
		return nil, false, err
	}
	if fromFile && d.header.ID != fileID {
		return nil, false, fmt.Errorf("snapshot names session %q", d.header.ID)
	}
	if sess, err = s.restoreSession(d); err != nil {
		return nil, false, err
	}
	if d.torn {
		s.log.Warn("snapshot log had a torn tail; resuming at the last complete slot",
			"session", sess.id, "nextSlot", sess.next)
	}
	sess.logOK, sess.logSlots = fromFile && !d.torn, sess.next
	return s.register(sess)
}

// restoreFile is restore over the session's persisted log.
func (s *Server) restoreFile(id string) (*session, bool, error) {
	doc, err := os.ReadFile(s.snapshotPath(id))
	if err != nil {
		return nil, false, err
	}
	return s.restore(doc, id)
}

// errSessionsFull is register's refusal at the MaxSessions cap.
var errSessionsFull = errors.New("session limit reached")

// register inserts a new or restored session, enforcing the session cap
// and id uniqueness. On an id collision the existing session wins and is
// returned with inserted=false (concurrent restores of the same snapshot
// are idempotent).
func (s *Server) register(sess *session) (*session, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.sessions[sess.id]; ok {
		return cur, false, nil
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		return nil, false, fmt.Errorf("%w (%d)", errSessionsFull, s.cfg.MaxSessions)
	}
	s.sessions[sess.id] = sess
	s.mSessionsTotal.Inc()
	s.mSessionsActive.Set(float64(len(s.sessions)))
	return sess, true, nil
}

// validSessionID accepts ids that are safe as path segments and
// snapshot file names.
func validSessionID(id string) error {
	if id == "" || len(id) > 128 {
		return fmt.Errorf("session id must be 1..128 characters")
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '-' || r == '_' || r == '.':
		default:
			return fmt.Errorf("session id %q: only [A-Za-z0-9._-] allowed", id)
		}
	}
	if id[0] == '.' {
		return fmt.Errorf("session id %q must not start with a dot", id)
	}
	return nil
}

// snapshotPath is the session's on-disk snapshot log.
func (s *Server) snapshotPath(id string) string {
	return filepath.Join(s.cfg.SnapshotDir, id)
}

// persist brings the session's log in SnapshotDir up to its committed
// slots and costs O(slots not yet logged): nothing when the log is
// current, one append of the missing records when the file is known good,
// and a whole-file write (temp + rename) only when there is no such file
// — first write, restore from a request body, or an earlier write failed
// and left the tail in doubt. An append encodes into the session's
// recBuf, so a steady stream of slots allocates no record buffer; the
// write itself is synchronous. doc, when non-nil, is the session's
// encoding, reused for the whole-file case. A failure marks the log stale,
// so the next persist rewrites the file whole. The caller must hold
// stepMu, which is what keeps appends, explicit snapshots and eviction
// from interleaving.
func (s *Server) persist(sess *session, reason string, doc []byte) error {
	// A handler that was mid-solve when DELETE removed the session must
	// not write its file back.
	if sess.isEvicted() {
		return nil
	}
	n := sess.next
	if sess.logOK && sess.logSlots == n {
		return nil
	}
	path := s.snapshotPath(sess.id)
	var err error
	kind := "rewrite"
	if sess.logOK {
		kind = "append"
		if doc, err = sess.appendRecords(sess.recBuf[:0], sess.logSlots); err == nil {
			sess.recBuf = doc
			err = appendFile(path, doc)
		}
	} else {
		if doc == nil {
			doc, err = sess.encode()
		}
		if err == nil {
			err = writeFileAtomic(path, doc)
		}
	}
	if err != nil {
		sess.logOK = false
		if reason == "evict" {
			kind = "evict"
		}
		s.mSnapshotErrors.With(kind).Inc()
		return err
	}
	s.mSnapshotBytes.Add(float64(len(doc)))
	sess.logOK, sess.logSlots = true, n
	s.mSnapshots.With(reason).Inc()
	return nil
}

// appendFile appends b to an existing file. The descriptor lives for one
// record: measured against holding one open per session, the open and
// close cost 8 µs on a 40 kB record, and no descriptor outlives a request.
func appendFile(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeFileAtomic replaces path with b through a temp file and a rename,
// so a crash leaves the old file or the new one, never a mixture.
func writeFileAtomic(path string, b []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), tmpPrefix+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(b)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// removeSnapshot deletes the session's persisted snapshot, if any.
func (s *Server) removeSnapshot(id string) {
	if s.cfg.SnapshotDir == "" {
		return
	}
	if err := os.Remove(s.snapshotPath(id)); err != nil && !errors.Is(err, os.ErrNotExist) {
		s.log.Warn("removing snapshot", "session", id, "err", err)
	}
}

// restoreFromDisk loads and registers the session's persisted snapshot.
// Used when a request addresses a TTL-evicted (or pre-crash) session.
func (s *Server) restoreFromDisk(id string) (*session, bool) {
	if s.cfg.SnapshotDir == "" || validSessionID(id) != nil {
		return nil, false
	}
	sess, restored, err := s.restoreFile(id)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			s.log.Warn("restoring persisted snapshot", "session", id, "err", err)
		}
		return nil, false
	}
	if restored {
		s.mRestores.With("disk").Inc()
		s.log.Info("session restored from disk", "session", id, "nextSlot", sess.next)
	}
	return sess, true
}

// recoverSnapshots restores every persisted session found in
// SnapshotDir — crash recovery on daemon restart — and sweeps the temp
// files a crash mid-rewrite orphaned. Unreadable snapshots are logged
// and skipped. Returns the number of sessions restored.
func (s *Server) recoverSnapshots() int {
	entries, err := os.ReadDir(s.cfg.SnapshotDir)
	if err != nil {
		s.log.Warn("scanning snapshot dir", "dir", s.cfg.SnapshotDir, "err", err)
		return 0
	}
	recovered := 0
	for _, e := range entries {
		id := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasPrefix(id, tmpPrefix) {
			if err := os.Remove(filepath.Join(s.cfg.SnapshotDir, id)); err != nil {
				s.log.Warn("sweeping orphaned temp file", "file", id, "err", err)
			}
			continue
		}
		if validSessionID(id) != nil {
			continue
		}
		sess, restored, err := s.restoreFile(id)
		if err != nil {
			s.log.Warn("recovering snapshot", "file", id, "err", err)
			continue
		}
		if !restored {
			continue
		}
		// Server-generated ids are "s-N"; keep the counter ahead of every
		// recovered one so new sessions cannot collide.
		if n, err := strconv.ParseUint(strings.TrimPrefix(id, "s-"), 10, 64); err == nil {
			s.mu.Lock()
			s.nextID = max(s.nextID, n)
			s.mu.Unlock()
		}
		s.mRestores.With("recovery").Inc()
		s.log.Info("session recovered", "session", id, "nextSlot", sess.next)
		recovered++
	}
	return recovered
}

// handleSnapshot (POST /v1/sessions/{id}/snapshot) freezes the session
// between slots and returns the snapshot document; when SnapshotDir is
// configured the session's log is brought current too. Snapshots stay
// available while the server drains, so an orchestrator can save every
// session before stopping the process.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	sess, id, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session "+id)
		return
	}
	sess.touch(s.cfg.now())
	sess.stepMu.Lock()
	defer sess.stepMu.Unlock()
	if sess.isEvicted() {
		writeError(w, http.StatusGone, "session evicted; restore it from its snapshot")
		return
	}
	doc, err := sess.encode()
	if err == nil && s.cfg.SnapshotDir != "" {
		err = s.persist(sess, "request", doc)
	}
	if err != nil {
		s.log.Error("snapshot", "session", id, "err", err)
		writeError(w, http.StatusInternalServerError, "snapshot: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(doc) // a failed write means the client went away
}

// handleRestore (POST /v1/sessions/restore) recreates a session from a
// snapshot document, identified by its content (clients and the router
// post it under any Content-Type). Restoring an id that is already live
// is a conflict; restoring one whose log still sits on disk replaces the
// file on the next persist.
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit()
	if !ok {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	defer release()

	// A snapshot is the largest body the server reads whole: one of known
	// length is read into a buffer of that size, not grown to it.
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var doc []byte
	var err error
	if n := r.ContentLength; n > 0 && n <= maxBodyBytes {
		doc = make([]byte, n)
		_, err = io.ReadFull(body, doc)
	} else {
		doc, err = io.ReadAll(body)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading request: "+err.Error())
		return
	}
	sess, restored, err := s.restore(doc, "")
	switch {
	case errors.Is(err, errSessionsFull):
		s.reject(w, http.StatusTooManyRequests, "sessions-full", err.Error())
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "invalid snapshot: "+err.Error())
		return
	case !restored:
		writeError(w, http.StatusConflict, "session "+sess.id+" already exists")
		return
	}
	s.mRestores.With("request").Inc()
	s.log.Info("session restored", "session", sess.id, "nextSlot", sess.next)
	writeJSON(w, http.StatusCreated, createResponse{
		ID: sess.id, I: sess.inst.I, J: sess.inst.J,
		Horizon: sess.inst.T, Streaming: sess.streaming,
	})
}
