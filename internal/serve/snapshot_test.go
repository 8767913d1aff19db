package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"edgealloc/internal/core"
	"edgealloc/internal/model"
	"edgealloc/internal/sim"
)

// postRaw posts body as-is (snapshot documents are not JSON) and decodes
// a 2xx JSON reply into out.
func postRaw(t *testing.T, url string, body []byte, out any) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding response %q: %v", raw, err)
		}
	}
	return resp.StatusCode, raw
}

// snapshotSession hits the snapshot endpoint and returns the document.
func snapshotSession(t *testing.T, base, id string) []byte {
	t.Helper()
	code, raw := postRaw(t, base+"/v1/sessions/"+id+"/snapshot", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("snapshot %s: status %d: %s", id, code, raw)
	}
	return raw
}

// restoreSessionHTTP posts the snapshot to the restore endpoint.
func restoreSessionHTTP(t *testing.T, base string, snap []byte) createResponse {
	t.Helper()
	var resp createResponse
	code, raw := postRaw(t, base+"/v1/sessions/restore", snap, &resp)
	if code != http.StatusCreated {
		t.Fatalf("restore: status %d: %s", code, raw)
	}
	return resp
}

// mustDecode parses a complete snapshot document.
func mustDecode(t *testing.T, doc []byte) *snapDoc {
	t.Helper()
	d, err := decodeSnapshot(doc, false)
	if err != nil {
		t.Fatalf("decoding snapshot: %v", err)
	}
	return d
}

// encodeDoc re-renders a decoded (and possibly mutated) snapshot.
func encodeDoc(t *testing.T, d *snapDoc) []byte {
	t.Helper()
	b, err := encodeHeader(d.header)
	for _, rec := range d.records {
		if err == nil {
			b, err = appendRecord(b, rec)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// driveSlots posts slots [from, to) of a replay session.
func driveSlots(t *testing.T, base, id string, from, to int) []slotResponse {
	t.Helper()
	out := make([]slotResponse, 0, to-from)
	for slot := from; slot < to; slot++ {
		var resp slotResponse
		code, raw := doJSON(t, http.MethodPost,
			fmt.Sprintf("%s/v1/sessions/%s/slots", base, id),
			map[string]any{"slot": slot}, &resp)
		if code != http.StatusOK {
			t.Fatalf("slot %d: status %d: %s", slot, code, raw)
		}
		out = append(out, resp)
	}
	return out
}

// requireNoOwnGrid fails unless the live session id stands at n committed
// slots, as its algorithm does, and holds no decision grid of its own: no
// field of a session can hold one (a model.Alloc, a model.Schedule or a
// float64 slice), so every decision it serves or logs is read from the
// algorithm, and each is kept once.
func requireNoOwnGrid(t *testing.T, srv *Server, id string, n int) {
	t.Helper()
	srv.mu.Lock()
	sess := srv.sessions[id]
	srv.mu.Unlock()
	if sess == nil {
		t.Fatalf("session %s not registered", id)
	}
	sess.stepMu.Lock()
	next, built := sess.next, sess.alg.Decisions().Len()
	sess.stepMu.Unlock()
	if next != n || built != n {
		t.Fatalf("session at slot %d, algorithm %d, want %d", next, built, n)
	}
	grids := []reflect.Type{reflect.TypeOf(model.Alloc{}), reflect.TypeOf(model.Schedule{}),
		reflect.TypeOf([]float64{}), reflect.TypeOf([][]float64{})}
	st := reflect.TypeOf(session{})
	for k := 0; k < st.NumField(); k++ {
		if f := st.Field(k); slices.Contains(grids, f.Type) {
			t.Errorf("session.%s (%s) can hold a decision grid of the session's own", f.Name, f.Type)
		}
	}
}

// TestSnapshotRestoreRoundTrip moves a half-run session to a second
// daemon through the snapshot/restore endpoints and requires the
// migrated continuation to match the uninterrupted run bitwise (the
// default solving path restores exactly).
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	in := testInstance(t, 12, 6, 3)
	_, tsA := newTestServer(t, Config{})
	srvB, tsB := newTestServer(t, Config{})

	id := createSession(t, tsA.URL, in)
	driveSlots(t, tsA.URL, id, 0, 3)
	snap := snapshotSession(t, tsA.URL, id)
	if n := len(mustDecode(t, snap).records); n != 3 {
		t.Fatalf("snapshot at slot %d, want 3", n)
	}

	// The uninterrupted run continues on A; the migrated copy on B.
	restored := restoreSessionHTTP(t, tsB.URL, snap)
	if restored.ID != id || restored.Horizon != in.T {
		t.Fatalf("restore response %+v", restored)
	}
	requireNoOwnGrid(t, srvB, id, 3)
	respA := driveSlots(t, tsA.URL, id, 3, in.T)
	respB := driveSlots(t, tsB.URL, id, 3, in.T)
	requireNoOwnGrid(t, srvB, id, in.T)
	for k := range respA {
		if respA[k].Cost != respB[k].Cost {
			t.Fatalf("slot %d: migrated cost %+v != %+v", respA[k].Slot, respB[k].Cost, respA[k].Cost)
		}
	}
	schedA := fetchSchedule(t, tsA.URL, id)
	schedB := fetchSchedule(t, tsB.URL, id)
	if !schedulesEqual(schedA, schedB) {
		t.Fatal("migrated schedule differs from uninterrupted run")
	}
	last := respB[len(respB)-1]
	if !last.Done || last.Conformance == nil || !last.Conformance.OK {
		t.Fatalf("migrated run did not finish conformance-clean: %+v", last.Conformance)
	}
}

// TestSnapshotRoundTripBytes pins the wire format: encode → decode →
// restore → encode must be byte-stable (the fuzz target generalizes
// this), and the create payload's instance rides in the header untouched.
func TestSnapshotRoundTripBytes(t *testing.T) {
	in := testInstance(t, 8, 4, 5)
	srv, ts := newTestServer(t, Config{})
	id := createSession(t, ts.URL, in)
	driveSlots(t, ts.URL, id, 0, 2)
	first := snapshotSession(t, ts.URL, id)

	d := mustDecode(t, first)
	sess, err := srv.restoreSession(d)
	if err != nil {
		t.Fatal(err)
	}
	if second, err := sess.encode(); err != nil || !bytes.Equal(first, second) {
		t.Fatalf("snapshot round trip is not byte-stable (%v)", err)
	}
	if !bytes.Equal(encodeDoc(t, d), first) {
		t.Fatal("re-encoding the decoded header and records changed the bytes")
	}
	var want bytes.Buffer
	if err := model.WriteInstance(&want, in); err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, want.Bytes()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d.header.Instance, compact.Bytes()) {
		t.Fatal("header instance is not the create payload's instance")
	}
}

// TestCreateWithClientID covers router-style named sessions.
func TestCreateWithClientID(t *testing.T) {
	in := testInstance(t, 8, 3, 7)
	_, ts := newTestServer(t, Config{})

	var buf bytes.Buffer
	if err := model.WriteInstance(&buf, in); err != nil {
		t.Fatal(err)
	}
	body := map[string]any{"id": "user-42.trace", "instance": json.RawMessage(buf.Bytes())}
	var resp createResponse
	code, raw := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", body, &resp)
	if code != http.StatusCreated || resp.ID != "user-42.trace" {
		t.Fatalf("create with id: status %d resp %+v: %s", code, resp, raw)
	}
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", body, nil); code != http.StatusConflict {
		t.Fatalf("duplicate id: status %d, want 409", code)
	}
	for _, bad := range []string{"has/slash", ".hidden", "a b", string(make([]byte, 200))} {
		body["id"] = bad
		if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", body, nil); code != http.StatusBadRequest {
			t.Fatalf("id %q: status %d, want 400", bad, code)
		}
	}
}

// TestRestoreRejectsBadSnapshots exercises the restore validation. A
// request body gets no torn-tail tolerance: a short or corrupt record is
// a 400 like any other malformed field.
func TestRestoreRejectsBadSnapshots(t *testing.T) {
	in := testInstance(t, 8, 4, 9)
	_, ts := newTestServer(t, Config{})
	id := createSession(t, ts.URL, in)
	driveSlots(t, ts.URL, id, 0, 2)
	good := snapshotSession(t, ts.URL, id)

	mutate := func(f func(*snapDoc)) []byte {
		d := mustDecode(t, good)
		f(d)
		return encodeDoc(t, d)
	}
	flipped := bytes.Clone(good)
	flipped[len(flipped)-20] ^= 0x40
	cases := map[string][]byte{
		"bad-version":    mutate(func(d *snapDoc) { d.header.Version = 99 }),
		"no-instance":    mutate(func(d *snapDoc) { d.header.Instance = nil }),
		"bad-id":         mutate(func(d *snapDoc) { d.header.ID = "../escape" }),
		"tampered-state": mutate(func(d *snapDoc) { d.records[0].x[0] = -1 }),
		"tampered-input": mutate(func(d *snapDoc) { d.records[1].attach[0] = in.I }),
		"tampered-dual":  mutate(func(d *snapDoc) { d.records[1].duals[d.inst.J] = math.Inf(1) }),
		"slot-mismatch":  mutate(func(d *snapDoc) { d.records[1].Diag.Slot = 0 }),
		"early-summary":  mutate(func(d *snapDoc) { d.records[0].Summary = &conformSummary{OK: true} }),
		"slot-gap":       mutate(func(d *snapDoc) { d.records = d.records[1:] }),
		"bad-options":    mutate(func(d *snapDoc) { d.header.Options.Candidates = -1 }),
		"unknown-option": bytes.Replace(good, []byte(`"options":{`), []byte(`"options":{"bogusTier":true`), 1),
		"unknown-key":    bytes.Replace(good, []byte(`{"version":3,`), []byte(`{"version":3,"bogusKey":1,`), 1),
		"bad-checksum":   flipped,
		"torn-record":    good[:len(good)-9],
		"trailing-bytes": append(bytes.Clone(good), 0, 0, 0),
		"no-newline":     bytes.Replace(good, []byte("}\n"), []byte("}"), 1),
		"empty":          nil,
	}
	for name, snap := range cases {
		if code, _ := postRaw(t, ts.URL+"/v1/sessions/restore", snap, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
	// A version-2 document, whose dual records carry a zero ρ block between
	// θ and ν, is refused by version, naming both.
	v2 := mutate(func(d *snapDoc) {
		d.header.Version = 2
		for _, r := range d.records {
			r.duals = slices.Insert(r.duals, d.inst.J, make([]float64, d.inst.I)...)
		}
	})
	if code, raw := postRaw(t, ts.URL+"/v1/sessions/restore", v2, nil); code != http.StatusBadRequest ||
		!bytes.Contains(raw, []byte("snapshot version 2, want 3")) {
		t.Errorf("v2 document: status %d: %s, want a 400 naming versions 2 and 3", code, raw)
	}
	// A header naming an option or key this binary does not have is
	// refused by name, by the restore endpoint and by boot recovery alike,
	// never restored on whatever tier the remaining options select.
	for name, key := range map[string]string{"unknown-option": "bogusTier", "unknown-key": "bogusKey"} {
		if bytes.Equal(cases[name], good) {
			t.Fatalf("%s: header not rewritten", name)
		}
		if _, raw := postRaw(t, ts.URL+"/v1/sessions/restore", cases[name], nil); !bytes.Contains(raw, []byte(key)) {
			t.Errorf("%s: error %s does not name %q", name, raw, key)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, id), cases[name], 0o644); err != nil {
			t.Fatal(err)
		}
		var logged bytes.Buffer
		_, boot := newTestServer(t, Config{SnapshotDir: dir, Logger: slog.New(slog.NewTextHandler(&logged, nil))})
		if recovery := logged.String(); !strings.Contains(recovery, key) {
			t.Errorf("%s: recovery log %q does not name %q", name, recovery, key)
		}
		if code, _ := doJSON(t, http.MethodGet, boot.URL+"/v1/sessions/"+id, nil, nil); code != http.StatusNotFound {
			t.Errorf("%s: boot recovery registered the session (status %d)", name, code)
		}
	}
	// Restoring over a live session is a conflict, not a replacement.
	if code, _ := postRaw(t, ts.URL+"/v1/sessions/restore", good, nil); code != http.StatusConflict {
		t.Error("restore over live session accepted")
	}
}

// TestRestoreRefusesIncrementalShards: a header naming both "incremental"
// and "shards", a pair no create accepts any more, is refused with a 400
// naming both keys by the restore endpoint, and logged and skipped by boot
// recovery.
func TestRestoreRefusesIncrementalShards(t *testing.T) {
	in := testInstance(t, 8, 4, 9)
	_, ts := newTestServer(t, Config{})
	id := createSession(t, ts.URL, in)
	driveSlots(t, ts.URL, id, 0, 2)
	d := mustDecode(t, snapshotSession(t, ts.URL, id))
	d.header.Options.Shards, d.header.Options.Incremental = 2, true
	doc := encodeDoc(t, d)
	if !bytes.Contains(doc[:bytes.IndexByte(doc, '\n')], []byte(`"shards":2,"incremental":true`)) {
		t.Fatalf("header does not name both keys: %.200s", doc)
	}

	_, fresh := newTestServer(t, Config{})
	code, raw := postRaw(t, fresh.URL+"/v1/sessions/restore", doc, nil)
	if code != http.StatusBadRequest || !bytes.Contains(raw, []byte("incremental")) ||
		!bytes.Contains(raw, []byte("shards")) {
		t.Errorf("restore: status %d: %s, want a 400 naming both keys", code, raw)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, id), doc, 0o644); err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer
	_, boot := newTestServer(t, Config{SnapshotDir: dir, Logger: slog.New(slog.NewTextHandler(&logged, nil))})
	if recovery := logged.String(); !strings.Contains(recovery, "file="+id) || !strings.Contains(recovery, "shards") {
		t.Errorf("recovery log %q does not name the file and the pair", recovery)
	}
	if code, _ := doJSON(t, http.MethodGet, boot.URL+"/v1/sessions/"+id, nil, nil); code != http.StatusNotFound {
		t.Errorf("boot recovery registered the session (status %d)", code)
	}
}

// TestEvictToSnapshotAndDiskRestore drives the full disk lifecycle: TTL
// eviction persists the warm state, the next request transparently
// restores it, and the continuation matches the uninterrupted run
// bitwise. Before evict-to-snapshot, TTL eviction silently dropped the
// warm iterate and the session restarted from scratch.
func TestEvictToSnapshotAndDiskRestore(t *testing.T) {
	in := testInstance(t, 12, 6, 11)
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
	srv, ts := newTestServer(t, Config{SnapshotDir: dir, SessionTTL: time.Minute, now: now})
	_, tsRef := newTestServer(t, Config{})

	id := createSession(t, ts.URL, in)
	ref := createSession(t, tsRef.URL, in)
	driveSlots(t, ts.URL, id, 0, 3)
	driveSlots(t, tsRef.URL, ref, 0, 3)

	clock.Lock()
	clock.t = clock.t.Add(2 * time.Minute)
	clock.Unlock()
	if n := srv.evictIdle(now()); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}
	if _, err := os.Stat(filepath.Join(dir, id)); err != nil {
		t.Fatalf("snapshot not persisted on eviction: %v", err)
	}
	srv.mu.Lock()
	_, live := srv.sessions[id]
	srv.mu.Unlock()
	if live {
		t.Fatal("evicted session still in memory")
	}

	// The next slot post restores from disk transparently.
	driveSlots(t, ts.URL, id, 3, in.T)
	driveSlots(t, tsRef.URL, ref, 3, in.T)
	if !schedulesEqual(fetchSchedule(t, ts.URL, id), fetchSchedule(t, tsRef.URL, ref)) {
		t.Fatal("restored continuation differs from uninterrupted run")
	}
}

// TestEvictionRaceGetsGoneNotOrphan is the regression test for the TTL
// eviction race: a slot request that resolved its session before the
// janitor evicted it must fail with 410 (and succeed on retry via the
// disk snapshot) instead of solving into the orphaned object — which is
// what happened before the evicted flag: the solve advanced warm state
// the server had already dropped, silently losing the slot.
func TestEvictionRaceGetsGoneNotOrphan(t *testing.T) {
	in := testInstance(t, 10, 4, 13)
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
	looked := make(chan string)
	proceed := make(chan struct{})
	var hook func(string)
	hookMu := sync.Mutex{}
	cfg := Config{SnapshotDir: dir, SessionTTL: time.Minute, now: now,
		hookPostLookup: func(id string) {
			hookMu.Lock()
			h := hook
			hookMu.Unlock()
			if h != nil {
				h(id)
			}
		}}
	srv, ts := newTestServer(t, cfg)

	id := createSession(t, ts.URL, in)
	driveSlots(t, ts.URL, id, 0, 2)

	// Stall the next slot request between session lookup and the solve.
	hookMu.Lock()
	hook = func(sid string) {
		looked <- sid
		<-proceed
	}
	hookMu.Unlock()
	type result struct {
		code int
		raw  []byte
	}
	done := make(chan result)
	go func() {
		buf, _ := json.Marshal(map[string]any{"slot": 2})
		resp, err := http.Post(ts.URL+"/v1/sessions/"+id+"/slots", "application/json", bytes.NewReader(buf))
		if err != nil {
			done <- result{0, []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		done <- result{resp.StatusCode, nil}
	}()
	<-looked
	hookMu.Lock()
	hook = nil
	hookMu.Unlock()

	// The janitor fires while the handler is parked: idle past TTL, no
	// queued work, so the session evicts to disk.
	clock.Lock()
	clock.t = clock.t.Add(2 * time.Minute)
	clock.Unlock()
	if n := srv.evictIdle(now()); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}
	close(proceed)
	res := <-done
	if res.code != http.StatusGone {
		t.Fatalf("raced request: status %d, want 410: %s", res.code, res.raw)
	}

	// Retrying resumes from the snapshot with the warm state intact.
	driveSlots(t, ts.URL, id, 2, in.T)
	var status statusResponse
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+id, nil, &status); code != http.StatusOK || !status.Done {
		t.Fatalf("restored session did not finish: %d %+v", code, status)
	}
}

// TestEvictionSkipsInFlightSolve pins the TryLock half of the race: a
// session whose solve is running is never evicted, even when its
// lastUsed timestamp has aged past the TTL.
func TestEvictionSkipsInFlightSolve(t *testing.T) {
	in := testInstance(t, 10, 3, 17)
	clock := struct {
		sync.Mutex
		t time.Time
	}{t: time.Unix(1000, 0)}
	now := func() time.Time {
		clock.Lock()
		defer clock.Unlock()
		return clock.t
	}
	solving := make(chan struct{})
	finish := make(chan struct{})
	var once sync.Once
	srv, ts := newTestServer(t, Config{SnapshotDir: t.TempDir(), SessionTTL: time.Minute, now: now,
		hookSolveStart: func(string) {
			once.Do(func() {
				close(solving)
				<-finish
			})
		}})
	id := createSession(t, ts.URL, in)

	done := make(chan struct{})
	go func() {
		defer close(done)
		driveSlots(t, ts.URL, id, 0, 1)
	}()
	<-solving
	clock.Lock()
	clock.t = clock.t.Add(2 * time.Minute)
	clock.Unlock()
	if n := srv.evictIdle(now()); n != 0 {
		t.Fatalf("evicted %d sessions with a solve in flight, want 0", n)
	}
	close(finish)
	<-done
}

// TestCrashRecovery restarts the daemon over the same snapshot
// directory (autosnapshot persisting every slot) and requires the
// recovered sessions to finish with the uninterrupted run's schedule.
func TestCrashRecovery(t *testing.T) {
	in := testInstance(t, 12, 6, 19)
	dir := t.TempDir()

	// First daemon: drive half the horizon, then "crash" (no shutdown,
	// no snapshot call — only the autosnapshots survive).
	crashed, tsA := newTestServer(t, Config{SnapshotDir: dir, Autosnapshot: true})
	id := createSession(t, tsA.URL, in)
	driveSlots(t, tsA.URL, id, 0, 3)
	tsA.Close()
	_ = crashed.Close()

	_, tsRef := newTestServer(t, Config{})
	ref := createSession(t, tsRef.URL, in)
	driveSlots(t, tsRef.URL, ref, 0, in.T)

	// Second daemon over the same directory recovers the session.
	srv2, ts2 := newTestServer(t, Config{SnapshotDir: dir, Autosnapshot: true})
	var status statusResponse
	if code, raw := doJSON(t, http.MethodGet, ts2.URL+"/v1/sessions/"+id, nil, &status); code != http.StatusOK {
		t.Fatalf("recovered session not found: %d: %s", code, raw)
	}
	if status.NextSlot != 3 {
		t.Fatalf("recovered at slot %d, want 3", status.NextSlot)
	}
	requireNoOwnGrid(t, srv2, id, 3)
	driveSlots(t, ts2.URL, id, 3, in.T)
	if !schedulesEqual(fetchSchedule(t, ts2.URL, id), fetchSchedule(t, tsRef.URL, ref)) {
		t.Fatal("recovered continuation differs from uninterrupted run")
	}

	// Recovered server-generated ids must not collide with new ones.
	id2 := createSession(t, ts2.URL, in)
	if id2 == id {
		t.Fatalf("new session reused recovered id %s", id)
	}
}

// TestTierDecidedAtCreateMigration: a session's solve tier is fixed when
// it is created. Created on a daemon whose defaults turn fast math on and
// migrated mid-run to a daemon started without that flag, it finishes on
// the fast-math kernels: the schedule is bitwise the uninterrupted
// fast-math run's, not a fast-math head with an exact tail.
func TestTierDecidedAtCreateMigration(t *testing.T) {
	in := testInstance(t, 12, 6, 3)
	tier := core.Options{FastMath: true}
	run, err := sim.Execute(in, core.NewOnlineApprox(nil, tier))
	if err != nil {
		t.Fatalf("fast-math reference run: %v", err)
	}
	want := run.Schedule
	if schedulesEqual(want, reference(t, in).Schedule) {
		t.Fatal("fast-math and exact schedules coincide; the instance cannot tell the tiers apart")
	}

	_, tsA := newTestServer(t, Config{Defaults: tier})
	_, tsB := newTestServer(t, Config{})
	id := createSession(t, tsA.URL, in)
	driveSlots(t, tsA.URL, id, 0, 2)
	snap := snapshotSession(t, tsA.URL, id)
	if got := mustDecode(t, snap).header.Options; !got.FastMath {
		t.Errorf("header options %+v do not record the daemon default", got)
	}
	restoreSessionHTTP(t, tsB.URL, snap)
	driveSlots(t, tsB.URL, id, 2, in.T)
	if !schedulesEqual(fetchSchedule(t, tsB.URL, id), want) {
		t.Fatal("session migrated to a daemon without -fastmath left the fast-math path")
	}
}

// TestTierDecidedAtCreateRecovery is the same guarantee through the
// on-disk path: autosnapshots written by a daemon started with the
// incremental default are recovered once by a daemon started without it
// and once (from a copy of the log) by one started with it. Both finish
// with the schedule of the uninterrupted incremental run, bit for bit —
// and the tail still freezes users.
func TestTierDecidedAtCreateRecovery(t *testing.T) {
	in := testInstance(t, 12, 6, 19)
	tier := core.Options{Incremental: true, IncrementalTol: 1e3}
	run, err := sim.Execute(in, core.NewOnlineApprox(nil, tier))
	if err != nil {
		t.Fatalf("incremental reference run: %v", err)
	}
	want := run.Schedule
	if schedulesEqual(want, reference(t, in).Schedule) {
		t.Fatal("incremental and exact schedules coincide; the instance cannot tell the tiers apart")
	}
	dir, dirSame := t.TempDir(), t.TempDir()

	crashed, tsA := newTestServer(t, Config{SnapshotDir: dir, Autosnapshot: true, Defaults: tier})
	id := createSession(t, tsA.URL, in)
	driveSlots(t, tsA.URL, id, 0, 2)
	tsA.Close()
	_ = crashed.Close()
	log, err := os.ReadFile(filepath.Join(dir, id))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dirSame, id), log, 0o600); err != nil {
		t.Fatal(err)
	}

	_, tsPlain := newTestServer(t, Config{SnapshotDir: dir, Autosnapshot: true})
	_, tsSame := newTestServer(t, Config{SnapshotDir: dirSame, Autosnapshot: true, Defaults: tier})
	frozen := 0
	for _, sr := range driveSlots(t, tsPlain.URL, id, 2, in.T) {
		frozen += sr.Solve.FrozenUsers
	}
	if frozen == 0 {
		t.Error("recovered tail froze no user: the session fell back to full re-solves")
	}
	driveSlots(t, tsSame.URL, id, 2, in.T)
	if !schedulesEqual(fetchSchedule(t, tsPlain.URL, id), want) {
		t.Fatal("session recovered by a daemon without -incremental left the incremental path")
	}
	if !schedulesEqual(fetchSchedule(t, tsSame.URL, id), want) {
		t.Fatal("session recovered by a daemon with -incremental differs from the uninterrupted run")
	}
}

// TestDeleteRemovesSnapshot: an explicit DELETE is an intentional
// discard — the disk snapshot goes too, so the session cannot
// resurrect through the lookup fallback.
func TestDeleteRemovesSnapshot(t *testing.T) {
	in := testInstance(t, 8, 3, 23)
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{SnapshotDir: dir})
	id := createSession(t, ts.URL, in)
	driveSlots(t, ts.URL, id, 0, 1)
	snapshotSession(t, ts.URL, id)
	if _, err := os.Stat(filepath.Join(dir, id)); err != nil {
		t.Fatal("snapshot endpoint did not persist with SnapshotDir set")
	}
	if code, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	if _, err := os.Stat(filepath.Join(dir, id)); !os.IsNotExist(err) {
		t.Fatal("snapshot survived DELETE")
	}
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+id, nil, nil); code != http.StatusNotFound {
		t.Fatalf("deleted session still reachable: %d", code)
	}
}
