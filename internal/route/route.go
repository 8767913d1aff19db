// Package route implements the edgerouter tier: a thin, stateless HTTP
// router that places allocation sessions across N edged replicas by
// rendezvous (highest-random-weight) hashing of the session id and
// forwards every session request to its owner.
//
// Rendezvous hashing keeps placement stable under membership change:
// when a replica joins, the only sessions whose owner changes are the
// ones the new replica now wins (an expected 1/(n+1) fraction); when a
// replica leaves, only its own sessions move. SetReplicas migrates the
// misplaced sessions through the edged snapshot/restore endpoints, so a
// session's warm iterate, dual record, and cost bookkeeping travel with
// it and the online algorithm continues as if it had never moved.
//
// The router holds no session state of its own: every routing decision
// is a pure function of (membership, session id), so any number of
// stateless router processes can front the same replica set.
package route

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxBodyBytes bounds forwarded request bodies (mirrors internal/serve).
const maxBodyBytes = 256 << 20

// score is the rendezvous weight of placing id on replica: FNV-1a over
// the pair pushed through a splitmix64-style finalizer. Raw FNV of
// near-identical keys (sequential session ids, replicas differing in
// one port digit) is highly correlated, which skews placement badly;
// the avalanche mixer restores a uniform spread. Pure and stateless,
// so every router instance agrees on the owner.
func score(replica, id string) uint64 {
	h := fnv.New64a()
	_, _ = io.WriteString(h, replica)
	_, _ = h.Write([]byte{0})
	_, _ = io.WriteString(h, id)
	z := h.Sum64()
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Owner returns the replica that owns the session under rendezvous
// hashing, or "" when the membership is empty. Ties break toward the
// lexicographically smaller replica so the choice stays deterministic.
func Owner(replicas []string, id string) string {
	best, bestScore := "", uint64(0)
	for _, r := range replicas {
		s := score(r, id)
		if best == "" || s > bestScore || (s == bestScore && r < best) {
			best, bestScore = r, s
		}
	}
	return best
}

// Config tunes the router.
type Config struct {
	// Replicas is the initial membership: edged base URLs
	// (e.g. "http://127.0.0.1:8081"). Normalized via NormalizeReplica.
	Replicas []string
	// Client performs the forwarded requests (default: 2-minute timeout,
	// matching edged's default StepTimeout).
	Client *http.Client
	// Logger receives structured routing/migration logs (nil = silent).
	Logger *slog.Logger
}

// Router fronts a set of edged replicas.
type Router struct {
	mu       sync.RWMutex
	replicas []string

	client *http.Client
	log    *slog.Logger
	nextID atomic.Uint64

	mux *http.ServeMux
}

// normalizeSet canonicalizes, dedups, and sorts a membership list.
func normalizeSet(replicas []string) ([]string, error) {
	if len(replicas) == 0 {
		return nil, errors.New("route: at least one replica required")
	}
	normalized := make([]string, 0, len(replicas))
	seen := map[string]bool{}
	for _, r := range replicas {
		n, err := NormalizeReplica(r)
		if err != nil {
			return nil, err
		}
		if !seen[n] {
			seen[n] = true
			normalized = append(normalized, n)
		}
	}
	sort.Strings(normalized)
	return normalized, nil
}

// NormalizeReplica canonicalizes a replica address to a base URL.
func NormalizeReplica(addr string) (string, error) {
	addr = strings.TrimRight(strings.TrimSpace(addr), "/")
	if addr == "" {
		return "", errors.New("empty replica address")
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	if !strings.HasPrefix(addr, "http://") && !strings.HasPrefix(addr, "https://") {
		return "", fmt.Errorf("replica %q: only http/https supported", addr)
	}
	return addr, nil
}

// New builds a router over the given replicas.
func New(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("route: at least one replica required")
	}
	normalized, err := normalizeSet(cfg.Replicas)
	if err != nil {
		return nil, err
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 2 * time.Minute}
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(discardHandler{})
	}
	rt := &Router{replicas: normalized, client: client, log: log, mux: http.NewServeMux()}
	rt.routes()
	return rt, nil
}

func (rt *Router) routes() {
	rt.mux.HandleFunc("POST /v1/sessions", rt.handleCreate)
	rt.mux.HandleFunc("GET /v1/sessions", rt.handleList)
	rt.mux.HandleFunc("POST /v1/sessions/restore", rt.handleRestore)
	rt.mux.HandleFunc("/v1/sessions/{id}", rt.handleSession)
	rt.mux.HandleFunc("/v1/sessions/{id}/{rest...}", rt.handleSession)
	rt.mux.HandleFunc("GET /admin/replicas", rt.handleGetReplicas)
	rt.mux.HandleFunc("PUT /admin/replicas", rt.handleSetReplicas)
	rt.mux.HandleFunc("GET /admin/owner", rt.handleOwner)
	rt.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Replicas returns the current membership.
func (rt *Router) Replicas() []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return append([]string(nil), rt.replicas...)
}

// OwnerOf returns the replica owning the session id under the current
// membership.
func (rt *Router) OwnerOf(id string) string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return Owner(rt.replicas, id)
}

// --- request forwarding -------------------------------------------------

// forward replays the request (with the given body) to the replica and
// copies the response through.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, replica string, body []byte) {
	url := replica + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, bytes.NewReader(body))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.log.Warn("forwarding failed", "replica", replica, "path", r.URL.Path, "err", err)
		writeError(w, http.StatusBadGateway,
			fmt.Sprintf("replica %s unreachable: %v", replica, err))
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading request: "+err.Error())
		return nil, false
	}
	return body, true
}

// handleCreate places a new session: the id (client-supplied, or minted
// here so placement stays deterministic) picks the owner, and the
// create request — with the id filled in — goes there.
func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var probe struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}
	if probe.ID == "" {
		// Mint a router-scoped id and inject it, keeping every other
		// field untouched.
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(body, &fields); err != nil {
			writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
			return
		}
		probe.ID = fmt.Sprintf("r-%d", rt.nextID.Add(1))
		fields["id"], _ = json.Marshal(probe.ID)
		body, _ = json.Marshal(fields)
	}
	owner := rt.OwnerOf(probe.ID)
	if owner == "" {
		writeError(w, http.StatusServiceUnavailable, "no replicas")
		return
	}
	rt.log.Info("session placed", "session", probe.ID, "replica", owner)
	rt.forward(w, r, owner, body)
}

// handleRestore routes an explicit snapshot restore to the snapshot's
// owner under the current membership. A snapshot is a JSON header line
// followed by binary slot records (DESIGN.md §7g); the id is in the
// header, which is all the router reads.
func (rt *Router) handleRestore(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var probe struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&probe); err != nil || probe.ID == "" {
		writeError(w, http.StatusBadRequest, "snapshot missing id")
		return
	}
	owner := rt.OwnerOf(probe.ID)
	if owner == "" {
		writeError(w, http.StatusServiceUnavailable, "no replicas")
		return
	}
	rt.forward(w, r, owner, body)
}

// handleSession forwards {id}-scoped requests to the session's owner.
func (rt *Router) handleSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	owner := rt.OwnerOf(id)
	if owner == "" {
		writeError(w, http.StatusServiceUnavailable, "no replicas")
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	rt.forward(w, r, owner, body)
}

// handleList merges the session lists of every replica.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	all := []string{}
	for _, replica := range rt.Replicas() {
		ids, err := rt.listSessions(r.Context(), replica)
		if err != nil {
			writeError(w, http.StatusBadGateway,
				fmt.Sprintf("replica %s: %v", replica, err))
			return
		}
		all = append(all, ids...)
	}
	sort.Strings(all)
	writeJSON(w, http.StatusOK, map[string]any{"sessions": all})
}

// --- membership + rebalancing -------------------------------------------

func (rt *Router) handleGetReplicas(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"replicas": rt.Replicas()})
}

// handleOwner resolves ?session=<id> to its owning replica without
// forwarding anything. Load generators (internal/loadgen, cmd/edgeload)
// use it to dial session owners directly, taking the router's forwarding
// copy off the hot path while keeping placement decisions in one place.
func (rt *Router) handleOwner(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("session")
	if id == "" {
		writeError(w, http.StatusBadRequest, "session query parameter required")
		return
	}
	owner := rt.OwnerOf(id)
	if owner == "" {
		writeError(w, http.StatusServiceUnavailable, "no replicas")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"session": id, "owner": owner})
}

// handleSetReplicas replaces the membership and migrates every session
// whose owner changed (snapshot on the old replica, restore on the new
// one, delete the original). Replicas leaving the set must stay
// reachable until the call returns; sessions they host are drained to
// their new owners.
func (rt *Router) handleSetReplicas(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Replicas []string `json:"replicas"`
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}
	// Reject malformed memberships up front (400); once the set is
	// valid, any remaining failure is a migration problem (502).
	if _, err := normalizeSet(req.Replicas); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	moved, err := rt.SetReplicas(r.Context(), req.Replicas)
	if err != nil {
		writeError(w, http.StatusBadGateway, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"replicas": rt.Replicas(), "migrated": moved,
	})
}

// SetReplicas swaps the membership and rebalances. It returns the
// number of sessions migrated. Sessions are migrated from the union of
// the old and new sets, so a departing replica is drained.
func (rt *Router) SetReplicas(ctx context.Context, replicas []string) (int, error) {
	normalized, err := normalizeSet(replicas)
	if err != nil {
		return 0, err
	}
	seen := map[string]bool{}
	for _, r := range normalized {
		seen[r] = true
	}

	rt.mu.Lock()
	old := rt.replicas
	rt.replicas = normalized
	rt.mu.Unlock()

	for _, r := range old {
		seen[r] = true
	}
	hosts := make([]string, 0, len(seen))
	for r := range seen {
		hosts = append(hosts, r)
	}
	sort.Strings(hosts)
	moved, err := rt.rebalance(ctx, hosts, normalized)
	if err != nil {
		return moved, err
	}
	rt.log.Info("membership updated", "replicas", normalized, "migrated", moved)
	return moved, nil
}

// rebalance walks hosts, finds sessions whose rendezvous owner under
// members differs from where they live, and moves them via
// snapshot → restore → delete. A departing host (not in members) that
// is unreachable is skipped with a warning rather than failing the
// call: after a crash its sessions come back from persisted snapshots
// on a restarted replica, not from a drain.
func (rt *Router) rebalance(ctx context.Context, hosts, members []string) (int, error) {
	inMembers := map[string]bool{}
	for _, m := range members {
		inMembers[m] = true
	}
	moved := 0
	var errs []error
	for _, host := range hosts {
		ids, err := rt.listSessions(ctx, host)
		if err != nil {
			if !inMembers[host] {
				rt.log.Warn("departing replica unreachable; skipping drain", "replica", host, "err", err)
				continue
			}
			errs = append(errs, fmt.Errorf("listing %s: %w", host, err))
			continue
		}
		for _, id := range ids {
			owner := Owner(members, id)
			if owner == host {
				continue
			}
			if err := rt.migrate(ctx, host, owner, id); err != nil {
				errs = append(errs, fmt.Errorf("migrating %s from %s to %s: %w", id, host, owner, err))
				continue
			}
			moved++
			rt.log.Info("session migrated", "session", id, "from", host, "to", owner)
		}
	}
	return moved, errors.Join(errs...)
}

// migrate moves one session: snapshot at src, restore at dst, delete at
// src. The snapshot endpoint serializes with in-flight solves, so the
// state moves between slots; a request racing the migration gets 410
// from src and is retried by the client against the router, which now
// forwards it to dst.
func (rt *Router) migrate(ctx context.Context, src, dst, id string) error {
	snap, err := rt.do(ctx, http.MethodPost, src+"/v1/sessions/"+id+"/snapshot", nil)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if _, err := rt.do(ctx, http.MethodPost, dst+"/v1/sessions/restore", snap); err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	if _, err := rt.do(ctx, http.MethodDelete, src+"/v1/sessions/"+id, nil); err != nil {
		return fmt.Errorf("delete: %w", err)
	}
	return nil
}

// listSessions asks one replica for its session ids.
func (rt *Router) listSessions(ctx context.Context, replica string) ([]string, error) {
	raw, err := rt.do(ctx, http.MethodGet, replica+"/v1/sessions", nil)
	if err != nil {
		return nil, err
	}
	var resp struct {
		Sessions []string `json:"sessions"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, err
	}
	return resp.Sessions, nil
}

// do performs one JSON request against a replica and returns the body,
// failing on non-2xx statuses.
func (rt *Router) do(ctx context.Context, method, url string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// --- small helpers ------------------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, detail string) {
	writeJSON(w, status, map[string]string{"error": detail})
}

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }
