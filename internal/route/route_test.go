package route

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"edgealloc/internal/core"
	"edgealloc/internal/model"
	"edgealloc/internal/scenario"
	"edgealloc/internal/serve"
	"edgealloc/internal/sim"
)

// --- helpers (mirror internal/serve's test harness over the wire) -------

func testInstance(t *testing.T, users, horizon int, seed int64) *model.Instance {
	t.Helper()
	in, _, err := scenario.Rome(scenario.Config{Users: users, Horizon: horizon, Seed: seed})
	if err != nil {
		t.Fatalf("building instance: %v", err)
	}
	return in
}

func doJSON(t *testing.T, method, url string, body, out any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal request: %v", err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("building request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
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

// wire mirrors of internal/serve's (unexported) response documents.
type createResp struct {
	ID string `json:"id"`
}

type slotResp struct {
	Slot int  `json:"slot"`
	Done bool `json:"done"`
	Cost struct {
		SlotTotal float64 `json:"slotTotal"`
		RunTotal  float64 `json:"runTotal"`
	} `json:"cost"`
	Conformance *struct {
		OK         bool           `json:"ok"`
		Violations map[string]int `json:"violations"`
	} `json:"conformance"`
}

type listResp struct {
	Sessions []string `json:"sessions"`
}

// newReplica starts one edged-equivalent server.
func newReplica(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { _ = s.Close() })
	return s, ts
}

// newCluster starts n replicas plus a router fronting them.
func newCluster(t *testing.T, n int, cfg serve.Config) (*Router, *httptest.Server, []*httptest.Server) {
	t.Helper()
	replicas := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range replicas {
		_, ts := newReplica(t, cfg)
		replicas[i] = ts
		urls[i] = ts.URL
	}
	rt, err := New(Config{Replicas: urls})
	if err != nil {
		t.Fatalf("building router: %v", err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	return rt, front, replicas
}

// createVia creates a session (replay mode) through base, with the
// given client id ("" = let the router mint one).
func createVia(t *testing.T, base, id string, in *model.Instance) string {
	t.Helper()
	var buf bytes.Buffer
	if err := model.WriteInstance(&buf, in); err != nil {
		t.Fatalf("encoding instance: %v", err)
	}
	body := map[string]any{"instance": json.RawMessage(buf.Bytes())}
	if id != "" {
		body["id"] = id
	}
	var resp createResp
	code, raw := doJSON(t, http.MethodPost, base+"/v1/sessions", body, &resp)
	if code != http.StatusCreated {
		t.Fatalf("create session: status %d: %s", code, raw)
	}
	return resp.ID
}

// driveVia posts slots [from, to) and returns the last response.
func driveVia(t *testing.T, base, id string, from, to int) slotResp {
	t.Helper()
	var last slotResp
	for slot := from; slot < to; slot++ {
		code, raw := doJSON(t, http.MethodPost,
			fmt.Sprintf("%s/v1/sessions/%s/slots", base, id),
			map[string]any{"slot": slot}, &last)
		if code != http.StatusOK {
			t.Fatalf("session %s slot %d: status %d: %s", id, slot, code, raw)
		}
	}
	return last
}

func fetchScheduleVia(t *testing.T, base, id string) model.Schedule {
	t.Helper()
	resp, err := http.Get(base + "/v1/sessions/" + id + "/schedule")
	if err != nil {
		t.Fatalf("get schedule: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get schedule %s: status %d", id, resp.StatusCode)
	}
	sched, err := model.ReadSchedule(resp.Body)
	if err != nil {
		t.Fatalf("decoding schedule: %v", err)
	}
	return sched
}

func listOn(t *testing.T, base string) []string {
	t.Helper()
	var resp listResp
	code, raw := doJSON(t, http.MethodGet, base+"/v1/sessions", nil, &resp)
	if code != http.StatusOK {
		t.Fatalf("list sessions: status %d: %s", code, raw)
	}
	return resp.Sessions
}

func reference(t *testing.T, in *model.Instance) *sim.Run {
	t.Helper()
	run, err := sim.Execute(in, core.NewOnlineApprox(nil, core.Options{}))
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return run
}

// totalsMatch compares a session's running total against the batch
// reference. The server accumulates slot by slot while sim.Execute
// totals the breakdown at the end, so the two differ by summation
// order in the last ulp; anything beyond 1e-12 relative is a real gap.
func totalsMatch(got, want float64) bool {
	return math.Abs(got-want) <= 1e-12*(1+math.Abs(want))
}

func schedulesEqual(a, b model.Schedule) bool {
	if len(a) != len(b) {
		return false
	}
	for t := range a {
		if a[t].I != b[t].I || a[t].J != b[t].J || len(a[t].X) != len(b[t].X) {
			return false
		}
		for k := range a[t].X {
			if a[t].X[k] != b[t].X[k] {
				return false
			}
		}
	}
	return true
}

// --- placement properties ------------------------------------------------

func TestOwnerDeterministicAndBalanced(t *testing.T) {
	replicas := []string{"http://a:1", "http://b:1", "http://c:1"}
	counts := map[string]int{}
	const n = 3000
	for k := 0; k < n; k++ {
		id := fmt.Sprintf("session-%d", k)
		o := Owner(replicas, id)
		if o2 := Owner(replicas, id); o2 != o {
			t.Fatalf("owner of %s not deterministic: %s vs %s", id, o, o2)
		}
		// Membership order must not matter.
		if o3 := Owner([]string{replicas[2], replicas[0], replicas[1]}, id); o3 != o {
			t.Fatalf("owner of %s depends on membership order: %s vs %s", id, o, o3)
		}
		counts[o]++
	}
	for _, r := range replicas {
		frac := float64(counts[r]) / n
		if frac < 1.0/6 || frac > 1.0/2 {
			t.Fatalf("replica %s owns %.1f%% of ids; want roughly a third", r, 100*frac)
		}
	}
	if Owner(nil, "x") != "" {
		t.Fatalf("empty membership should own nothing")
	}
}

func TestOwnerRendezvousStability(t *testing.T) {
	old := []string{"http://a:1", "http://b:1", "http://c:1"}
	grown := append(append([]string(nil), old...), "http://d:1")
	moved := 0
	const n = 3000
	for k := 0; k < n; k++ {
		id := fmt.Sprintf("session-%d", k)
		was, now := Owner(old, id), Owner(grown, id)
		if was != now {
			moved++
			// The defining rendezvous property: a session only ever moves
			// TO a joining replica, never between surviving ones.
			if now != "http://d:1" {
				t.Fatalf("id %s moved %s -> %s on join of d", id, was, now)
			}
		}
	}
	// Expected fraction is 1/4; allow a generous band.
	if frac := float64(moved) / n; frac < 0.15 || frac > 0.35 {
		t.Fatalf("join moved %.1f%% of ids; want ~25%%", 100*frac)
	}
	// Symmetric property on leave: only the departing replica's sessions move.
	for k := 0; k < n; k++ {
		id := fmt.Sprintf("session-%d", k)
		was := Owner(grown, id)
		now := Owner(old, id)
		if was != "http://d:1" && was != now {
			t.Fatalf("id %s moved %s -> %s on leave of d", id, was, now)
		}
	}
}

func TestNormalizeReplica(t *testing.T) {
	for _, tc := range []struct {
		in, want string
		ok       bool
	}{
		{"http://x:1/", "http://x:1", true},
		{" 127.0.0.1:8081 ", "http://127.0.0.1:8081", true},
		{"https://edge.example", "https://edge.example", true},
		{"", "", false},
		{"ftp://x", "", false},
	} {
		got, err := NormalizeReplica(tc.in)
		if tc.ok != (err == nil) || got != tc.want {
			t.Fatalf("NormalizeReplica(%q) = %q, %v; want %q, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

// TestAdminOwnerResolvesPlacement covers the ownership-lookup endpoint
// load generators use to dial session owners directly.
func TestAdminOwnerResolvesPlacement(t *testing.T) {
	rt, front, _ := newCluster(t, 3, serve.Config{})

	for k := 0; k < 20; k++ {
		id := fmt.Sprintf("probe-%d", k)
		var resp struct {
			Session string `json:"session"`
			Owner   string `json:"owner"`
		}
		code, raw := doJSON(t, http.MethodGet,
			front.URL+"/admin/owner?session="+id, nil, &resp)
		if code != http.StatusOK {
			t.Fatalf("owner of %s: status %d: %s", id, code, raw)
		}
		if resp.Session != id {
			t.Fatalf("owner of %s echoed session %q", id, resp.Session)
		}
		if want := rt.OwnerOf(id); resp.Owner != want {
			t.Fatalf("owner of %s = %s, want %s", id, resp.Owner, want)
		}
	}

	// Missing session parameter is rejected.
	code, raw := doJSON(t, http.MethodGet, front.URL+"/admin/owner", nil, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("owner without session: status %d: %s", code, raw)
	}
}

// --- forwarding ----------------------------------------------------------

// TestRouterPlacesAndForwards drives sessions end to end through the
// router over two replicas: every session must live only on its
// rendezvous owner, and the routed runs must match the single-process
// reference bitwise.
func TestRouterPlacesAndForwards(t *testing.T) {
	in := testInstance(t, 10, 4, 1)
	rt, front, replicas := newCluster(t, 2, serve.Config{})

	ids := []string{}
	for k := 0; k < 4; k++ {
		ids = append(ids, createVia(t, front.URL, fmt.Sprintf("user-%d", k), in))
	}
	// A create without a client id gets a router-minted one.
	minted := createVia(t, front.URL, "", in)
	if minted == "" {
		t.Fatalf("router did not mint an id")
	}
	ids = append(ids, minted)

	// Placement: each session registered only on its owner.
	onReplica := map[string]string{}
	for _, ts := range replicas {
		for _, id := range listOn(t, ts.URL) {
			if prev, dup := onReplica[id]; dup {
				t.Fatalf("session %s on both %s and %s", id, prev, ts.URL)
			}
			onReplica[id] = ts.URL
		}
	}
	for _, id := range ids {
		if got, want := onReplica[id], rt.OwnerOf(id); got != want {
			t.Fatalf("session %s on %s; rendezvous owner is %s", id, got, want)
		}
	}

	// The merged router-level list sees every session.
	all := listOn(t, front.URL)
	if len(all) != len(ids) {
		t.Fatalf("router lists %d sessions, want %d", len(all), len(ids))
	}

	// Drive through the router and compare against the reference run.
	ref := reference(t, in)
	for _, id := range ids {
		last := driveVia(t, front.URL, id, 0, in.T)
		if !last.Done {
			t.Fatalf("session %s not done after horizon", id)
		}
		if last.Conformance == nil || !last.Conformance.OK {
			t.Fatalf("session %s conformance: %+v", id, last.Conformance)
		}
		if !totalsMatch(last.Cost.RunTotal, ref.Total) {
			t.Fatalf("session %s total %v, reference %v", id, last.Cost.RunTotal, ref.Total)
		}
		if sched := fetchScheduleVia(t, front.URL, id); !schedulesEqual(sched, ref.Schedule) {
			t.Fatalf("session %s schedule diverged from reference", id)
		}
	}

	// Status for an id owned by either replica resolves through the router.
	for _, id := range ids {
		code, raw := doJSON(t, http.MethodGet, front.URL+"/v1/sessions/"+id, nil, nil)
		if code != http.StatusOK {
			t.Fatalf("status %s: %d: %s", id, code, raw)
		}
	}

	// Snapshot → delete → restore through the router: the snapshot is a
	// JSON header line plus binary records, and the router places the
	// restore by the id in the header alone.
	id := ids[0]
	resp, err := http.Post(front.URL+"/v1/sessions/"+id+"/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot via router: status %d: %v", resp.StatusCode, err)
	}
	if code, raw := doJSON(t, http.MethodDelete, front.URL+"/v1/sessions/"+id, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete via router: %d: %s", code, raw)
	}
	resp, err = http.Post(front.URL+"/v1/sessions/restore", "application/json", bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("restore via router: status %d", resp.StatusCode)
	}
	if sched := fetchScheduleVia(t, front.URL, id); !schedulesEqual(sched, ref.Schedule) {
		t.Fatalf("session %s schedule changed across snapshot/restore", id)
	}
	if !slices.Contains(listOn(t, rt.OwnerOf(id)), id) {
		t.Fatalf("restored session %s is not on its owner", id)
	}
}

// --- membership change ---------------------------------------------------

// TestMembershipChangeMigratesOnlyMoved grows the cluster mid-run and
// checks that exactly the re-homed sessions migrate (warm state
// travelling via snapshot/restore) and that every run still finishes
// bitwise-identical to the uninterrupted reference.
func TestMembershipChangeMigratesOnlyMoved(t *testing.T) {
	in := testInstance(t, 10, 5, 2)
	rt, front, replicas := newCluster(t, 2, serve.Config{})

	const sessions = 6
	ids := make([]string, sessions)
	for k := range ids {
		ids[k] = createVia(t, front.URL, fmt.Sprintf("mob-%d", k), in)
		driveVia(t, front.URL, ids[k], 0, 2)
	}

	// Third replica joins.
	_, ts3 := newReplica(t, serve.Config{})
	oldURLs := rt.Replicas()
	newURLs := append(append([]string(nil), oldURLs...), ts3.URL)

	wantMoved := 0
	for _, id := range ids {
		was, now := Owner(oldURLs, id), Owner(newURLs, id)
		if was != now {
			wantMoved++
			if now != ts3.URL {
				t.Fatalf("id %s re-homed %s -> %s; must only move to the joiner", id, was, now)
			}
		}
	}

	var resp struct {
		Replicas []string `json:"replicas"`
		Migrated int      `json:"migrated"`
	}
	code, raw := doJSON(t, http.MethodPut, front.URL+"/admin/replicas",
		map[string]any{"replicas": newURLs}, &resp)
	if code != http.StatusOK {
		t.Fatalf("set replicas: status %d: %s", code, raw)
	}
	if resp.Migrated != wantMoved {
		t.Fatalf("migrated %d sessions, want %d", resp.Migrated, wantMoved)
	}
	if len(resp.Replicas) != 3 {
		t.Fatalf("membership %v, want 3 replicas", resp.Replicas)
	}

	// Every session now lives exactly on its owner under the new set.
	located := map[string]string{}
	for _, ts := range append(replicas, ts3) {
		for _, id := range listOn(t, ts.URL) {
			located[id] = ts.URL
		}
	}
	for _, id := range ids {
		if got, want := located[id], rt.OwnerOf(id); got != want {
			t.Fatalf("after rebalance session %s on %s, owner %s", id, got, want)
		}
	}

	// Finish every run through the router; migration must be invisible.
	ref := reference(t, in)
	for _, id := range ids {
		last := driveVia(t, front.URL, id, 2, in.T)
		if last.Conformance == nil || !last.Conformance.OK {
			t.Fatalf("session %s conformance after migration: %+v", id, last.Conformance)
		}
		if !totalsMatch(last.Cost.RunTotal, ref.Total) {
			t.Fatalf("session %s total %v, reference %v", id, last.Cost.RunTotal, ref.Total)
		}
		if sched := fetchScheduleVia(t, front.URL, id); !schedulesEqual(sched, ref.Schedule) {
			t.Fatalf("session %s schedule diverged after migration", id)
		}
	}
}

// --- chaos: replica crash + snapshot recovery ----------------------------

// TestChaosReplicaCrashRestore kills a replica mid-stream under the
// router, restarts it from its persisted snapshots, swaps the
// membership to the reborn replica, and checks every resumed run
// against the uninterrupted single-process reference: schedules must
// match bitwise and the slot-coupled total cost to 1e-8, with the
// conformance oracle clean.
func TestChaosReplicaCrashRestore(t *testing.T) {
	in := testInstance(t, 10, 6, 3)
	dirA, dirB := t.TempDir(), t.TempDir()

	_, tsA := newReplica(t, serve.Config{SnapshotDir: dirA, Autosnapshot: true})
	// Replica B is closed mid-test, so it is managed by hand.
	srvB := serve.New(serve.Config{SnapshotDir: dirB, Autosnapshot: true})
	tsB := httptest.NewServer(srvB.Handler())

	rt, err := New(Config{Replicas: []string{tsA.URL, tsB.URL}})
	if err != nil {
		t.Fatalf("building router: %v", err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	// Pick ids that land on both replicas (ownership depends on the
	// ephemeral test ports, so probe instead of hardcoding names).
	var ids []string
	perReplica := map[string]int{}
	for k := 0; len(ids) < 6 && k < 10000; k++ {
		id := fmt.Sprintf("chaos-%d", k)
		owner := rt.OwnerOf(id)
		if perReplica[owner] >= 3 {
			continue
		}
		perReplica[owner]++
		ids = append(ids, id)
	}
	if perReplica[tsA.URL] != 3 || perReplica[tsB.URL] != 3 {
		t.Fatalf("could not spread sessions over both replicas: %v", perReplica)
	}
	for _, id := range ids {
		createVia(t, front.URL, id, in)
		driveVia(t, front.URL, id, 0, 3)
	}

	// Crash replica B: the process dies with sessions mid-horizon. Every
	// committed slot was autosnapshotted, so at most the (not in-flight
	// here) current solve would be lost.
	tsB.Close()
	_ = srvB.Close()

	// A request for a session owned by the dead replica fails loudly at
	// the router rather than hanging.
	for _, id := range ids {
		if rt.OwnerOf(id) == tsB.URL {
			code, _ := doJSON(t, http.MethodPost,
				fmt.Sprintf("%s/v1/sessions/%s/slots", front.URL, id),
				map[string]any{"slot": 3}, nil)
			if code != http.StatusBadGateway {
				t.Fatalf("slot on crashed replica: status %d, want 502", code)
			}
			break
		}
	}

	// Rebirth: a fresh daemon over B's snapshot dir recovers its
	// sessions, and the membership swap re-homes everything.
	srvB2 := serve.New(serve.Config{SnapshotDir: dirB, Autosnapshot: true})
	tsB2 := httptest.NewServer(srvB2.Handler())
	t.Cleanup(tsB2.Close)
	t.Cleanup(func() { _ = srvB2.Close() })

	recoveredOnB2 := listOn(t, tsB2.URL)
	if len(recoveredOnB2) == 0 {
		t.Fatalf("reborn replica recovered no sessions from %s", dirB)
	}

	if _, err := rt.SetReplicas(context.Background(), []string{tsA.URL, tsB2.URL}); err != nil {
		t.Fatalf("membership swap after crash: %v", err)
	}

	// Resume every run through the router and pin it to the
	// uninterrupted reference.
	ref := reference(t, in)
	for _, id := range ids {
		last := driveVia(t, front.URL, id, 3, in.T)
		if !last.Done {
			t.Fatalf("session %s not done after resume", id)
		}
		if last.Conformance == nil || !last.Conformance.OK {
			t.Fatalf("session %s conformance after crash recovery: %+v", id, last.Conformance)
		}
		gap := math.Abs(last.Cost.RunTotal-ref.Total) / (1 + math.Abs(ref.Total))
		if gap > 1e-8 {
			t.Fatalf("session %s resumed cost %v vs uninterrupted %v (gap %.3e > 1e-8)",
				id, last.Cost.RunTotal, ref.Total, gap)
		}
		if sched := fetchScheduleVia(t, front.URL, id); !schedulesEqual(sched, ref.Schedule) {
			t.Fatalf("session %s schedule diverged after crash recovery", id)
		}
	}
}

// TestRouterErrors covers the router's own failure modes.
func TestRouterErrors(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatalf("router with no replicas must fail")
	}
	_, front, _ := newCluster(t, 1, serve.Config{})

	// Unknown session id forwards and yields the replica's 404.
	code, _ := doJSON(t, http.MethodGet, front.URL+"/v1/sessions/nope", nil, nil)
	if code != http.StatusNotFound {
		t.Fatalf("unknown session: status %d, want 404", code)
	}
	// Restore without an id is rejected at the router.
	code, _ = doJSON(t, http.MethodPost, front.URL+"/v1/sessions/restore",
		map[string]any{"version": 1}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("restore without id: status %d, want 400", code)
	}
	// Emptying the membership is rejected.
	code, _ = doJSON(t, http.MethodPut, front.URL+"/admin/replicas",
		map[string]any{"replicas": []string{}}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("empty membership: status %d, want 400", code)
	}
	// Health endpoint answers locally.
	code, _ = doJSON(t, http.MethodGet, front.URL+"/healthz", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
}
