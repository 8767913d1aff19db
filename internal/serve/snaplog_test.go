package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"edgealloc/internal/core"
	"edgealloc/internal/model"
	"edgealloc/internal/solver/alm"
)

// fixedChurn rewrites the instance's attachments so exactly `moves` users
// change cloud at every slot: the decision's support, and with it the
// record size, has no reason to drift with t.
func fixedChurn(in *model.Instance, moves int) {
	for t := 1; t < in.T; t++ {
		copy(in.Attach[t], in.Attach[t-1])
		for m := 0; m < moves; m++ {
			j := (t*moves + m) % in.J
			in.Attach[t][j] = (in.Attach[t][j] + 1 + m) % in.I
		}
	}
}

// createStreaming opens a streaming session over the instance's skeleton.
func createStreaming(t *testing.T, base string, in *model.Instance, options map[string]any) string {
	t.Helper()
	skeleton := *in
	skeleton.T = 0
	skeleton.OpPrice, skeleton.Attach, skeleton.AccessDelay = nil, nil, nil
	raw, err := json.Marshal(&skeleton)
	if err != nil {
		t.Fatalf("marshal skeleton: %v", err)
	}
	body := map[string]any{"instance": json.RawMessage(raw), "horizon": in.T}
	if options != nil {
		body["options"] = options
	}
	var created createResponse
	if code, msg := doJSON(t, http.MethodPost, base+"/v1/sessions", body, &created); code != http.StatusCreated {
		t.Fatalf("create streaming session: status %d: %s", code, msg)
	}
	return created.ID
}

// streamSlots posts slots [from, to) of a streaming session.
func streamSlots(t *testing.T, base, id string, in *model.Instance, from, to int) []slotResponse {
	t.Helper()
	out := make([]slotResponse, 0, to-from)
	for slot := from; slot < to; slot++ {
		var resp slotResponse
		code, raw := doJSON(t, http.MethodPost, fmt.Sprintf("%s/v1/sessions/%s/slots", base, id),
			map[string]any{
				"slot":        slot,
				"opPrice":     in.OpPrice[slot],
				"attach":      in.Attach[slot],
				"accessDelay": in.AccessDelay[slot],
			}, &resp)
		if code != http.StatusOK {
			t.Fatalf("slot %d: status %d: %s", slot, code, raw)
		}
		out = append(out, resp)
	}
	return out
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// frame wraps a raw payload as appendRecord frames its own.
func frame(payload []byte) []byte {
	b := le.AppendUint32(nil, uint32(len(payload)))
	b = append(b, payload...)
	return le.AppendUint32(b, crc32.Checksum(payload, castagnoli))
}

// TestRecordCodecBitExact: the sparse decision encoding keys on the bit
// pattern, not the value, so −0.0 and subnormals survive and only +0.0 is
// elided; a fully dense decision round-trips too.
func TestRecordCodecBitExact(t *testing.T) {
	const nI, nJ = 2, 3
	negZero := math.Copysign(0, -1)
	sparse := []float64{0, negZero, math.SmallestNonzeroFloat64, 0, 1.5, -math.SmallestNonzeroFloat64}
	dense := []float64{0.25, 1, math.Nextafter(1, 2), 1e-300, 3, math.MaxFloat64}
	for name, x := range map[string][]float64{"sparse": sparse, "dense": dense} {
		rec := &slotRecord{
			opPrice: []float64{1, 2}, attach: []int{0, 1, 1}, accessDelay: []float64{0, negZero, 0.5},
			x:     x,
			duals: []float64{1, -2, 3, negZero, 4},
		}
		rec.Cost = model.Breakdown{Op: 1, Sq: 0.1 + 0.2, Rc: 3, Mg: 1e-300}
		rec.Summary = &conformSummary{OK: true, RatioBound: 1.5, Violations: map[string]int{"b": 2, "a<": 1}}
		rec.Diag.Slot, rec.Diag.Converged, rec.Diag.Inner, rec.Diag.LogCacheHits = 7, true, -3, 1<<40
		enc, err := appendRecord(nil, rec)
		payload, size, ok := nextFrame(enc)
		if err != nil || !ok || size != len(enc) {
			t.Fatalf("%s: frame does not parse back (%v)", name, err)
		}
		got, err := decodeRecord(payload, nI, nJ, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if msg := sameEntries(x, got.nz); msg != "" {
			t.Errorf("%s: decoded decision: %s", name, msg)
		}
		if math.Float64bits(got.duals[nJ]) != math.Float64bits(negZero) || got.Diag != rec.Diag ||
			got.Cost != rec.Cost || got.Summary.Violations["a<"] != 1 || !got.Summary.OK {
			t.Errorf("%s: record fields did not survive: %+v", name, got)
		}
		if again, err := appendRecord(nil, got); err != nil || !bytes.Equal(again, enc) {
			t.Errorf("%s: decoded record re-encodes differently (%v)", name, err)
		}
	}
	// +0.0 entries cost nothing: the sparse record is exactly two pairs
	// shorter than the dense one.
	a, _ := appendRecord(nil, &slotRecord{x: sparse})
	b, _ := appendRecord(nil, &slotRecord{x: dense})
	if d := len(b) - len(a); d != 2*12 {
		t.Errorf("dense − sparse = %d bytes, want 24", d)
	}
	// JSON cannot carry a non-finite cost; the encoder says so instead of
	// writing a record restore would choke on.
	if _, err := appendRecord(nil, &slotRecord{slotMeta: slotMeta{Cost: model.Breakdown{Mg: math.NaN()}}}); err == nil {
		t.Error("NaN cost encoded")
	}
}

// TestStopDiagRecordCompat: the stop reason, residual, stationarity and
// second-order step counts a slot's diagnostics gained are omitted when
// zero, so the bookkeeping of a record
// written before they existed (the literal below is that version's
// rendering) decodes and re-renders byte for byte, and a record that
// carries them round-trips too. The snapshot version is 3, the version of
// the [θ | ν] dual record; the diagnostics did not change it.
func TestStopDiagRecordCompat(t *testing.T) {
	const old = `{"cost":{"Op":1,"Sq":0.5,"Rc":3,"Mg":0.25},"diag":{"Slot":7,"Seconds":0.125,"Outer":60,"Inner":2949,"Converged":false,"CandRounds":2,"CandExpanded":0,"CandNNZ":0,"ShardIters":0,"ShardResidual":0,"ShardMaxSeconds":0,"LogCacheHits":0,"LogCacheMisses":0,"FrozenUsers":5,"ReadmittedUsers":0}}`
	var m slotMeta
	if err := json.Unmarshal([]byte(old), &m); err != nil {
		t.Fatal(err)
	}
	if m.Diag.Stop != alm.StopNone || m.Diag.Residual != 0 || m.Diag.Stationarity != 0 || m.Diag.Inner != 2949 {
		t.Fatalf("old bookkeeping decoded to %+v", m.Diag)
	}
	if again, err := json.Marshal(&m); err != nil || string(again) != old {
		t.Errorf("old bookkeeping re-renders as %s (%v)", again, err)
	}

	const nI, nJ = 2, 3
	rec := &slotRecord{
		opPrice: []float64{1, 2}, attach: []int{0, 1, 1}, accessDelay: []float64{0, 0, 0.5},
		x: []float64{0, 1, 0, 2, 0, 0.5}, duals: make([]float64, nJ+nI), slotMeta: m,
	}
	rec.Diag.Stop, rec.Diag.Residual, rec.Diag.Stationarity = alm.StopObjective, 2.31e-9, 4.7e-11
	rec.Diag.DualSteps, rec.Diag.DualRefused = 4, 1
	enc, err := appendRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	payload, _, ok := nextFrame(enc)
	if !ok {
		t.Fatal("frame does not parse back")
	}
	got, err := decodeRecord(payload, nI, nJ, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got.Diag != rec.Diag {
		t.Errorf("diagnostics did not survive: %+v, want %+v", got.Diag, rec.Diag)
	}
	// The record stores the reason's name, not the constant's value.
	if !bytes.Contains(payload, []byte(`"Stop":"objective"`)) {
		t.Error("stop reason is not stored by name")
	}
	if again, err := appendRecord(nil, got); err != nil || !bytes.Equal(again, enc) {
		t.Errorf("decoded record re-encodes differently (%v)", err)
	}
	if snapshotVersion != 3 {
		t.Errorf("snapshot version %d, want 3: the record layout did not change", snapshotVersion)
	}
}

// TestAppendIsConstantPerSlot pins O(1)-per-slot durability by count, not
// by time: on a fixed-churn streaming session under autosnapshot the bytes
// appended at slot t never exceed slot 3's by more than a constant that
// does not depend on t, however long the horizon, and the file is byte for
// byte the document POST …/snapshot returns.
func TestAppendIsConstantPerSlot(t *testing.T) {
	in := testInstance(t, 10, 16, 29)
	fixedChurn(in, 2)
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{SnapshotDir: dir, Autosnapshot: true})
	id := createStreaming(t, ts.URL, in, map[string]any{"candidates": 3})
	path := filepath.Join(dir, id)

	// grew is what the writer wrote at each slot (the daemon's own byte
	// counter), which must also be exactly how much the file grew.
	var grew []int64
	size, written := int64(0), 0.0
	for slot := 0; slot < in.T; slot++ {
		streamSlots(t, ts.URL, id, in, slot, slot+1)
		now, total := fileSize(t, path), srv.mSnapshotBytes.Value()
		if int64(total-written) != now-size {
			t.Fatalf("slot %d: wrote %v bytes for %d bytes of log", slot, total-written, now-size)
		}
		grew = append(grew, now-size)
		size, written = now, total
	}
	t.Logf("header+slot 0: %d bytes; slots 1..: %v", grew[0], grew[1:])
	// What may vary between records: the decision's support (12 bytes a
	// pair, at most a user's candidate set turning over per move) and, on
	// the last slot, the conformance summary.
	const slack = 12*3*2*2 + 64
	for slot := 3; slot < in.T; slot++ {
		if d := grew[slot] - grew[3]; d > slack || d < -slack {
			t.Errorf("slot %d appended %d bytes, slot 3 appended %d: not within %d", slot, grew[slot], grew[3], slack)
		}
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if body := snapshotSession(t, ts.URL, id); !bytes.Equal(file, body) {
		t.Fatalf("log file (%d bytes) differs from the snapshot document (%d bytes)", len(file), len(body))
	}
	if after := fileSize(t, path); after != size {
		t.Errorf("explicit snapshot of a current log changed the file: %d → %d bytes", size, after)
	}
}

// TestTornTail cuts a session's log at every offset inside its last
// record — what a crash mid-append leaves — and at the degenerate cuts (0
// bytes, mid-header). A file resumes at the last complete slot; the same
// bytes as a request body are refused; and a daemon booted over the torn
// log finishes the horizon bitwise equal to the uninterrupted run.
func TestTornTail(t *testing.T) {
	in := testInstance(t, 6, 5, 31)
	dir := t.TempDir()
	crashed, ts := newTestServer(t, Config{SnapshotDir: dir, Autosnapshot: true})
	id := createSession(t, ts.URL, in)
	driveSlots(t, ts.URL, id, 0, 2)
	before := fileSize(t, filepath.Join(dir, id))
	driveSlots(t, ts.URL, id, 2, 3)
	ts.Close()
	_ = crashed.Close()
	log, err := os.ReadFile(filepath.Join(dir, id))
	if err != nil {
		t.Fatal(err)
	}

	_, tsRef := newTestServer(t, Config{})
	ref := createSession(t, tsRef.URL, in)
	driveSlots(t, tsRef.URL, ref, 0, in.T)
	want := fetchSchedule(t, tsRef.URL, ref)

	for cut := int(before); cut < len(log); cut++ {
		d, err := decodeSnapshot(log[:cut], true)
		if err != nil || len(d.records) != 2 || d.torn != (cut > int(before)) {
			t.Fatalf("file cut at %d of %d: records=%v err=%v", cut, len(log), d, err)
		}
		if cut > int(before) {
			if _, err := decodeSnapshot(log[:cut], false); err == nil {
				t.Fatalf("request body cut at %d accepted", cut)
			}
		}
	}
	hdr := bytes.IndexByte(log, '\n')
	for _, cut := range []int{0, hdr / 2, hdr} {
		if _, err := decodeSnapshot(log[:cut], true); err == nil {
			t.Errorf("file cut at %d (inside the header) accepted", cut)
		}
	}

	for _, cut := range []int{0, hdr / 2, int(before) + 1, (int(before) + len(log)) / 2, len(log) - 1} {
		dir2 := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir2, id), log[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		srv2, ts2 := newTestServer(t, Config{SnapshotDir: dir2, Autosnapshot: true})
		var status statusResponse
		code, _ := doJSON(t, http.MethodGet, ts2.URL+"/v1/sessions/"+id, nil, &status)
		if cut <= hdr {
			// No header, no session: skipped at boot, unknown afterwards.
			if code != http.StatusNotFound {
				t.Errorf("cut %d: status %d, want 404", cut, code)
			}
			continue
		}
		if code != http.StatusOK || status.NextSlot != 2 {
			t.Fatalf("cut %d: recovered with status %d at slot %d, want slot 2", cut, code, status.NextSlot)
		}
		driveSlots(t, ts2.URL, id, 2, in.T)
		if !schedulesEqual(fetchSchedule(t, ts2.URL, id), want) {
			t.Fatalf("cut %d: resumed run differs from the uninterrupted one", cut)
		}
		// The first commit after a torn tail rewrote the file whole, so
		// the garbage is gone and the log is the document again.
		file, err := os.ReadFile(filepath.Join(dir2, id))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(file, snapshotSession(t, ts2.URL, id)) {
			t.Fatalf("cut %d: healed log differs from the snapshot document", cut)
		}
		if n := srv2.mSnapshotErrors.With("append").Value() + srv2.mSnapshotErrors.With("rewrite").Value(); n != 0 {
			t.Errorf("cut %d: %v snapshot errors while healing", cut, n)
		}
	}
}

// TestRestoredWarmStateOnReducedPaths: the codec is path-agnostic, so on
// the sparse-decision tiers (Candidates + Incremental) the state rebuilt
// from a log must equal the live algorithm's exported state bit for bit;
// core's restore tests turn that into a bitwise continuation.
func TestRestoredWarmStateOnReducedPaths(t *testing.T) {
	in := testInstance(t, 8, 5, 37)
	fixedChurn(in, 1)
	srv, ts := newTestServer(t, Config{})
	id := createStreaming(t, ts.URL, in, map[string]any{"candidates": 2, "incremental": true})
	streamSlots(t, ts.URL, id, in, 0, 3)
	doc := snapshotSession(t, ts.URL, id)

	srv.mu.Lock()
	live := srv.sessions[id]
	srv.mu.Unlock()
	live.stepMu.Lock()
	want := live.alg.ExportState()
	live.stepMu.Unlock()

	d := mustDecode(t, doc)
	if len(d.records[2].nz) == in.I*in.J {
		t.Error("candidate-path decision has no zero entry; the sparse encoding went unexercised")
	}
	sess, err := srv.restoreSession(d)
	if err != nil {
		t.Fatal(err)
	}
	if msg := runEquiv(want.Schedule, want.Duals, sess.alg); msg != "" {
		t.Fatalf("restored warm state differs from the live one: %s", msg)
	}
	if sess.total != live.total || sess.costs != live.costs {
		t.Errorf("restored costs %v/%v, live %v/%v", sess.costs, sess.total, live.costs, live.total)
	}
}

// TestAppendFailureSelfHeals injects a failing append (the log's path
// turns into a directory): the slot is still served, the failure is
// counted once, the next commit rewrites the file whole, the one after
// appends again, and a daemon restored from the healed log equals the
// live session.
func TestAppendFailureSelfHeals(t *testing.T) {
	in := testInstance(t, 6, 6, 41)
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{SnapshotDir: dir, Autosnapshot: true})
	id := createSession(t, ts.URL, in)
	path := filepath.Join(dir, id)
	driveSlots(t, ts.URL, id, 0, 2)

	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	driveSlots(t, ts.URL, id, 2, 3) // append fails, slot acknowledged anyway
	if n := srv.mSnapshotErrors.With("append").Value(); n != 1 {
		t.Fatalf("append errors = %v, want 1", n)
	}
	// While the path is still unwritable an explicit snapshot reports it.
	if code, _ := postRaw(t, ts.URL+"/v1/sessions/"+id+"/snapshot", nil, nil); code != http.StatusInternalServerError {
		t.Errorf("snapshot over an unwritable log: status %d, want 500", code)
	}
	if n := srv.mSnapshotErrors.With("rewrite").Value(); n != 1 {
		t.Errorf("rewrite errors = %v, want 1", n)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	writes := srv.mSnapshots.With("auto").Value()
	driveSlots(t, ts.URL, id, 3, 4) // rewrites the file whole
	whole := fileSize(t, path)
	driveSlots(t, ts.URL, id, 4, 5) // appends one record
	if n := srv.mSnapshots.With("auto").Value() - writes; n != 2 {
		t.Errorf("auto writes after healing = %v, want 2", n)
	}
	if n := srv.mSnapshotErrors.With("append").Value(); n != 1 {
		t.Errorf("append errors = %v after healing, want still 1", n)
	}
	if grew := fileSize(t, path) - whole; grew <= 0 || grew > whole/3 {
		t.Errorf("slot 4 grew the healed log by %d of %d bytes: not one record's append", grew, whole)
	}

	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, snapshotSession(t, ts.URL, id)) {
		t.Fatal("healed log differs from the live session's snapshot")
	}
	_, ts2 := newTestServer(t, Config{SnapshotDir: dir})
	if !schedulesEqual(fetchSchedule(t, ts2.URL, id), fetchSchedule(t, ts.URL, id)) {
		t.Fatal("session recovered from the healed log differs from the live one")
	}
	var a, b costsResponse
	doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+id+"/costs", nil, &a)
	doJSON(t, http.MethodGet, ts2.URL+"/v1/sessions/"+id+"/costs", nil, &b)
	if a != b {
		t.Fatalf("recovered costs %+v, live %+v", b, a)
	}
}

// logBuffer collects a server's structured log for assertions.
type logBuffer struct {
	mu sync.Mutex
	bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.Buffer.Write(p)
}

// TestVersion1DocumentRejected: the whole-document JSON format is gone.
// Posting one to restore is a 400 that names the version; one left in the
// snapshot dir by an older daemon is skipped with a warning at boot.
func TestVersion1DocumentRejected(t *testing.T) {
	v1 := []byte(`{"version":1,"id":"s-1","streaming":false,"options":{},` +
		`"instance":{"I":1,"J":1,"T":1},"costs":{},"total":0,"lastDiag":{},` +
		`"state":{"slot":0,"schedule":[],"thetas":[],"rhos":[],"nus":[]}}`)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "s-1.snap.json"), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	var logs logBuffer
	_, ts := newTestServer(t, Config{SnapshotDir: dir,
		Logger: slog.New(slog.NewTextHandler(&logs, nil))})

	code, raw := postRaw(t, ts.URL+"/v1/sessions/restore", v1, nil)
	if code != http.StatusBadRequest || !strings.Contains(string(raw), "version 1") {
		t.Errorf("restore of a version-1 document: status %d: %s", code, raw)
	}
	var list struct{ Sessions []string }
	doJSON(t, http.MethodGet, ts.URL+"/v1/sessions", nil, &list)
	if len(list.Sessions) != 0 {
		t.Errorf("boot recovered %v from a version-1 file", list.Sessions)
	}
	logs.mu.Lock()
	defer logs.mu.Unlock()
	if out := logs.String(); !strings.Contains(out, "level=WARN") || !strings.Contains(out, "s-1.snap.json") ||
		!strings.Contains(out, "version 1") {
		t.Errorf("boot did not warn about the version-1 file:\n%s", out)
	}
}

// TestBootSweepsOrphanedTempFiles: a crash between creating the temp
// file of a whole-file write and renaming it used to leave the temp file
// in SnapshotDir forever.
func TestBootSweepsOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	orphan := filepath.Join(dir, tmpPrefix+"s-3-123456")
	if err := os.WriteFile(orphan, []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{SnapshotDir: dir})
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphaned temp file survived boot recovery: %v", err)
	}
	// The live writer's temp files are gone after every write too.
	id := createSession(t, ts.URL, testInstance(t, 4, 2, 43))
	driveSlots(t, ts.URL, id, 0, 1)
	snapshotSession(t, ts.URL, id)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != id {
		t.Fatalf("snapshot dir holds %v, want only %s", entries, id)
	}
	_ = srv
}

// TestEvictionWritesNothingWhenLogCurrent: evictIdle runs under the
// server-wide lock, so with the log already current (autosnapshot) it must
// not touch the disk; without autosnapshot it appends just the slots
// committed since the last write.
func TestEvictionWritesNothingWhenLogCurrent(t *testing.T) {
	in := testInstance(t, 6, 5, 47)
	for _, auto := range []bool{true, false} {
		dir := t.TempDir()
		clock := struct {
			sync.Mutex
			t time.Time
		}{t: time.Unix(1000, 0)}
		now := func() time.Time {
			clock.Lock()
			defer clock.Unlock()
			return clock.t
		}
		srv, ts := newTestServer(t, Config{SnapshotDir: dir, Autosnapshot: auto, SessionTTL: time.Minute, now: now})
		id := createSession(t, ts.URL, in)
		driveSlots(t, ts.URL, id, 0, 2)
		doc := snapshotSession(t, ts.URL, id)
		driveSlots(t, ts.URL, id, 2, 3)

		clock.Lock()
		clock.t = clock.t.Add(2 * time.Minute)
		clock.Unlock()
		if n := srv.evictIdle(now()); n != 1 {
			t.Fatalf("auto=%v: evicted %d sessions, want 1", auto, n)
		}
		want := 0.0
		if !auto {
			want = 1 // slot 2's record, appended to the explicit snapshot's file
		}
		if n := srv.mSnapshots.With("evict").Value(); n != want {
			t.Errorf("auto=%v: eviction wrote %v times, want %v", auto, n, want)
		}
		file, err := os.ReadFile(filepath.Join(dir, id))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(file, doc) || len(mustDecode(t, file).records) != 3 {
			t.Errorf("auto=%v: evicted log is not the slot-2 document plus one record", auto)
		}
		// The evicted session comes back from that log and finishes.
		driveSlots(t, ts.URL, id, 3, in.T)
	}
}

// TestReframedMutationsFailClosed gets past the checksum a byte-level
// fuzzer cannot: it corrupts record payloads and header fields of a
// genuine snapshot, re-frames them with a valid length and CRC, and
// requires decode + restore to either refuse the document or reproduce it
// byte for byte — never panic, never accept something it would re-encode
// differently.
func TestReframedMutationsFailClosed(t *testing.T) {
	in := testInstance(t, 4, 3, 53)
	srv, ts := newTestServer(t, Config{})
	id := createSession(t, ts.URL, in)
	driveSlots(t, ts.URL, id, 0, in.T)
	good := snapshotSession(t, ts.URL, id)

	hdr := bytes.IndexByte(good, '\n') + 1
	var payloads [][]byte
	for rest := good[hdr:]; len(rest) > 0; {
		payload, size, ok := nextFrame(rest)
		if !ok {
			t.Fatal("genuine snapshot does not frame")
		}
		payloads = append(payloads, payload)
		rest = rest[size:]
	}
	rng := rand.New(rand.NewSource(7))
	accepted := 0
	for iter := 0; iter < 4000; iter++ {
		doc := bytes.Clone(good[:hdr])
		victim := rng.Intn(len(payloads))
		for k, payload := range payloads {
			p := bytes.Clone(payload)
			if k == victim {
				switch rng.Intn(4) {
				case 0: // flip a byte anywhere
					p[rng.Intn(len(p))] ^= byte(1 + rng.Intn(255))
				case 1: // flip a byte in the trailing bookkeeping and summary
					p[len(p)-1-rng.Intn(min(len(p), 200))] ^= byte(1 + rng.Intn(255))
				case 2: // truncate
					p = p[:rng.Intn(len(p))]
				case 3: // extend
					p = append(p, byte(rng.Intn(256)))
				}
			}
			doc = append(doc, frame(p)...)
		}
		d, err := decodeSnapshot(doc, false)
		if err != nil {
			continue
		}
		sess, err := srv.restoreSession(d)
		if err != nil {
			continue
		}
		accepted++
		if again, err := sess.encode(); err != nil || !bytes.Equal(again, doc) {
			t.Fatalf("iteration %d: accepted a document that re-encodes differently (%v)", iter, err)
		}
	}
	if accepted == 0 {
		t.Error("no mutation survived: the test is not reaching past validation")
	}
}

// TestSlotRepliesCostTheBatchSchedule: a slot is priced from the algorithm's
// views of the transition it committed, not from a schedule. On the
// default, candidate and incremental paths, with autosnapshot on, every
// reply's cost is bit for bit the batch schedule's SlotCost, its totals the
// batch sums in commit order, and the allocation it was asked for the batch
// decision.
func TestSlotRepliesCostTheBatchSchedule(t *testing.T) {
	in := testInstance(t, 8, 6, 67)
	fixedChurn(in, 2)
	for _, tc := range []struct {
		name string
		wire map[string]any
		opts core.Options
	}{
		{"default", nil, core.Options{}},
		{"candidates", map[string]any{"candidates": 3}, core.Options{Candidates: 3}},
		{"incremental", map[string]any{"candidates": 3, "incremental": true, "incrementalTol": 1e3},
			core.Options{Candidates: 3, Incremental: true, IncrementalTol: 1e3}},
	} {
		sched, err := core.NewOnlineApprox(in, tc.opts).Run()
		if err != nil {
			t.Fatalf("%s: batch run: %v", tc.name, err)
		}
		_, ts := newTestServer(t, Config{SnapshotDir: t.TempDir(), Autosnapshot: true})
		id := createStreaming(t, ts.URL, in, tc.wire)
		prev, run, frozen := in.InitialAlloc(), 0.0, 0
		for slot := 0; slot < in.T; slot++ {
			var resp slotResponse
			code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+id+"/slots", map[string]any{
				"slot": slot, "opPrice": in.OpPrice[slot], "attach": in.Attach[slot],
				"accessDelay": in.AccessDelay[slot], "includeAllocation": true,
			}, &resp)
			if code != http.StatusOK {
				t.Fatalf("%s slot %d: status %d: %s", tc.name, slot, code, raw)
			}
			want := in.SlotCost(slot, prev, sched[slot])
			run += in.Total(want)
			got := resp.Cost
			for k, pair := range [][2]float64{{got.Op, want.Op}, {got.Sq, want.Sq}, {got.Rc, want.Rc},
				{got.Mg, want.Mg}, {got.SlotTotal, in.Total(want)}, {got.RunTotal, run}} {
				if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					t.Fatalf("%s slot %d: cost field %d is %v, the batch schedule's %v", tc.name, slot, k, pair[0], pair[1])
				}
			}
			if !schedulesEqual(model.Schedule{{I: in.I, J: in.J, X: resp.Allocation}}, sched[slot:slot+1]) {
				t.Fatalf("%s slot %d: allocation differs from the batch decision", tc.name, slot)
			}
			frozen += resp.Solve.FrozenUsers
			prev = sched[slot]
		}
		if tc.opts.Incremental && frozen == 0 {
			t.Errorf("%s: no slot froze a user; the column-logged path went unexercised", tc.name)
		}
	}
}

// TestSlotPhases: every slot reply of an autosnapshot session says where
// the handler's time went, each phase positive, and the phases plus the
// solve's bind, solve and commit seconds fit within the roundtrip the
// client measured; the snapshot does not keep them.
func TestSlotPhases(t *testing.T) {
	in := testInstance(t, 6, 4, 71)
	_, ts := newTestServer(t, Config{SnapshotDir: t.TempDir(), Autosnapshot: true})
	id := createSession(t, ts.URL, in)
	for slot := 0; slot < in.T; slot++ {
		body, err := json.Marshal(map[string]any{"slot": slot})
		if err != nil {
			t.Fatal(err)
		}
		var resp slotResponse
		start := time.Now()
		code, raw := postRaw(t, ts.URL+"/v1/sessions/"+id+"/slots", body, &resp)
		roundtrip := time.Since(start).Seconds()
		if code != http.StatusOK {
			t.Fatalf("slot %d: status %d: %s", slot, code, raw)
		}
		p, s := resp.Phases, resp.Solve
		if p == nil || !(p.DecodeSeconds > 0 && p.WaitSeconds > 0 && p.RecordSeconds > 0 && p.PersistSeconds > 0) {
			t.Fatalf("slot %d: phases %+v, want every one positive", slot, p)
		}
		if sum := p.DecodeSeconds + p.WaitSeconds + p.RecordSeconds + p.PersistSeconds +
			s.BindSeconds + s.Seconds + s.CommitSeconds; sum > roundtrip {
			t.Errorf("slot %d: phases add up to %v s, the roundtrip took %v s", slot, sum, roundtrip)
		}
	}
	if doc := snapshotSession(t, ts.URL, id); bytes.Contains(doc, []byte("decodeSeconds")) {
		t.Error("the snapshot keeps a slot's phases")
	}
}
