package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edgealloc/internal/model"
)

// TestServeSoak is the race-detector soak of the serving tier: several
// client goroutines hammer overlapping sessions with slot-advances,
// snapshot requests, deletes, and re-creates while the TTL janitor
// concurrently evicts idle sessions to disk and a final drain shuts the
// server down mid-traffic. Its value is entirely under `go test -race`
// (`make soak`, the CI soak job): any locking mistake between the
// session bookkeeping mutex, the per-session solve mutex, the evicted
// flag, and the snapshot persistence path surfaces here as a race
// report or a non-retryable status. Half the sessions run the incremental
// tier, whose Step returns a view of a grid it reuses two slots later; some
// slot posts ask for the allocation, which is that view, and some requests
// read the schedule, which the algorithm builds from its log under the
// session's stepMu while other posts wait to extend it. A third of the slot
// posts spell a key in another case ("Slot"), so the decoder's fast path
// and its encoding/json fallback both run, over the pooled body buffer.
//
// The iteration budget is deliberately small so the plain `make test`
// and `make race` sweeps stay fast; `make soak SOAK_ITERS=n` scales the
// wall-clock by running the test n times.
func TestServeSoak(t *testing.T) {
	in := testInstance(t, 4, 3, 1)

	// A fake clock advanced by the janitor goroutine below makes TTL
	// eviction fire constantly instead of once per real TTL.
	var clockMu sync.Mutex
	clock := time.Unix(0, 0)
	now := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return clock
	}

	srv, ts := newTestServer(t, Config{
		SnapshotDir:  t.TempDir(),
		Autosnapshot: true,
		SessionTTL:   time.Minute,
		now:          now,
	})

	const (
		workers     = 4
		sessionsPer = 2
		iters       = 60 // slot posts per worker before stopping
	)

	var wg, evictWg sync.WaitGroup
	var solved, evictRetries atomic.Uint64
	stop := make(chan struct{})

	// Janitor pressure: advance the clock past the TTL and evict in a
	// tight loop, so every slot post races an eviction attempt.
	evictWg.Add(1)
	go func() {
		defer evictWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			clockMu.Lock()
			clock = clock.Add(2 * time.Minute)
			clockMu.Unlock()
			srv.evictIdle(now())
			time.Sleep(time.Millisecond) // leave the solvers some CPU
		}
	}()

	// Client traffic: each worker owns a few session ids and loops
	// slot-advances over them, mixing in snapshots and delete/recreate.
	// A 410 (evicted mid-handler) is part of the contract: retrying the
	// same request must transparently restore from the disk snapshot.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			next := make([]int, sessionsPer)
			for k := 0; k < sessionsPer; k++ {
				createSoakSession(t, ts.URL, soakID(w, k), in, soakOptions(k))
			}
			for i := 0; i < iters; i++ {
				k := rng.Intn(sessionsPer)
				id := soakID(w, k)
				switch {
				case rng.Intn(10) == 0:
					// Snapshot under load.
					code, raw := doJSON(t, http.MethodPost,
						ts.URL+"/v1/sessions/"+id+"/snapshot", nil, nil)
					if code != http.StatusOK && code != http.StatusGone {
						t.Errorf("snapshot %s: status %d: %s", id, code, raw)
						return
					}
				case rng.Intn(10) == 0:
					// Read the schedule while other posts extend it.
					code, raw := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+id+"/schedule", nil, nil)
					if code != http.StatusOK && code != http.StatusConflict {
						t.Errorf("schedule %s: status %d: %s", id, code, raw)
						return
					}
				case rng.Intn(10) == 0:
					// Delete and recreate from scratch.
					doJSON(t, http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil, nil)
					createSoakSession(t, ts.URL, id, in, soakOptions(k))
					next[k] = 0
				default:
					if next[k] >= in.T {
						doJSON(t, http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil, nil)
						createSoakSession(t, ts.URL, id, in, soakOptions(k))
						next[k] = 0
					}
					withAlloc := rng.Intn(3) == 0
					slotKey := "slot"
					if rng.Intn(3) == 0 {
						slotKey = "Slot" // not canonical: decoded by encoding/json
					}
					var resp slotResponse
					code, raw := doJSON(t, http.MethodPost,
						fmt.Sprintf("%s/v1/sessions/%s/slots", ts.URL, id),
						map[string]any{slotKey: next[k], "includeAllocation": withAlloc}, &resp)
					switch code {
					case http.StatusOK:
						if withAlloc && len(resp.Allocation) != in.I*in.J {
							t.Errorf("slot %d on %s: allocation has %d entries, want %d",
								next[k], id, len(resp.Allocation), in.I*in.J)
							return
						}
						next[k]++
						solved.Add(1)
					case http.StatusGone:
						// Evicted between lookup and solve; the retry path
						// must restore from disk. Do not advance the slot.
						evictRetries.Add(1)
					case http.StatusTooManyRequests:
						// Queue full under the eviction storm; retry later.
					default:
						t.Errorf("slot %d on %s: status %d: %s", next[k], id, code, raw)
						return
					}
				}
			}
		}(w)
	}

	// Let the traffic run, then drain mid-flight: Shutdown must wait for
	// in-flight solves and stop the janitor without deadlocking against
	// the eviction loop.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatalf("soak wedged: workers did not finish")
	}
	close(stop)
	evictWg.Wait()

	if err := srv.Close(); err != nil {
		t.Fatalf("drain after soak: %v", err)
	}
	if solved.Load() == 0 {
		t.Fatalf("soak made no progress: 0 slot-advances")
	}
	t.Logf("soak: %d slot-advances, %d evict-retry (410) responses",
		solved.Load(), evictRetries.Load())
}

func soakID(w, k int) string { return fmt.Sprintf("soak-%d-%d", w, k) }

// soakOptions are the solver options of a worker's k-th session: the
// default path for even k, the incremental tier for odd.
func soakOptions(k int) map[string]any {
	return map[string]any{"incremental": k%2 == 1}
}

// createSoakSession creates (or re-creates) a session, tolerating the
// races inherent to the soak: a 409 means a concurrent restore-from-disk
// beat us to the id, which is fine — the session exists.
func createSoakSession(t *testing.T, base, id string, in *model.Instance, opts map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	if err := model.WriteInstance(&buf, in); err != nil {
		t.Fatalf("encoding instance: %v", err)
	}
	code, raw := doJSON(t, http.MethodPost, base+"/v1/sessions",
		map[string]any{"id": id, "instance": json.RawMessage(buf.Bytes()), "options": opts}, nil)
	if code != http.StatusCreated && code != http.StatusConflict {
		t.Errorf("create %s: status %d: %s", id, code, raw)
	}
}
