package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"edgealloc/internal/model"
)

// createWithOptions creates a replay session over in with the given solver
// options and returns its id.
func createWithOptions(t *testing.T, base string, in *model.Instance, options map[string]any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := model.WriteInstance(&buf, in); err != nil {
		t.Fatal(err)
	}
	var created createResponse
	code, raw := doJSON(t, http.MethodPost, base+"/v1/sessions",
		map[string]any{"instance": json.RawMessage(buf.Bytes()), "options": options}, &created)
	if code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", code, raw)
	}
	return created.ID
}

// postAllocations posts slots [from, to) asking for each committed
// decision and returns them.
func postAllocations(t *testing.T, base, id string, from, to int) [][]float64 {
	t.Helper()
	var out [][]float64
	for slot := from; slot < to; slot++ {
		var resp slotResponse
		code, raw := doJSON(t, http.MethodPost, fmt.Sprintf("%s/v1/sessions/%s/slots", base, id),
			map[string]any{"slot": slot, "includeAllocation": true}, &resp)
		if code != http.StatusOK {
			t.Fatalf("slot %d: status %d: %s", slot, code, raw)
		}
		out = append(out, resp.Allocation)
	}
	return out
}

// encoderBytes is the GET /schedule body encoding/json writes for the
// decisions, the reference the streamed body is held to byte for byte.
func encoderBytes(t *testing.T, in *model.Instance, slots [][]float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	doc := struct {
		I, J  int
		Slots [][]float64
	}{in.I, in.J, slots}
	if err := json.NewEncoder(&buf).Encode(doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func getSchedule(t *testing.T, base, id string) []byte {
	t.Helper()
	code, raw := doJSON(t, http.MethodGet, base+"/v1/sessions/"+id+"/schedule", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("get schedule: status %d: %s", code, raw)
	}
	return raw
}

// TestScheduleBodyMatchesEncoder requires GET /schedule, which walks the
// decision log, to return the bytes encoding/json writes for the decisions
// the slot replies carried — mid-run and finished, on the tiers that log
// whole grids and written columns, and on a session restored mid-run. The
// per-slot autosnapshot log, whose records come from each slot's view of
// its decision, must equal the whole snapshot, whose records come from a
// walk of the log.
func TestScheduleBodyMatchesEncoder(t *testing.T) {
	in := testInstance(t, 10, 6, 17)
	for _, tc := range []struct {
		name    string
		options map[string]any
	}{
		{"default", nil},
		{"candidates", map[string]any{"candidates": 2}},
		{"incremental", map[string]any{"candidates": 2, "incremental": true, "incrementalTol": 0.5}},
		{"shards", map[string]any{"shards": 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			_, tsA := newTestServer(t, Config{SnapshotDir: dir, Autosnapshot: true})
			_, tsB := newTestServer(t, Config{})
			id := createWithOptions(t, tsA.URL, in, tc.options)
			slots := postAllocations(t, tsA.URL, id, 0, 3)
			if got := getSchedule(t, tsA.URL, id); !bytes.Equal(got, encoderBytes(t, in, slots)) {
				t.Fatalf("mid-run body differs from encoding/json's:\n%.300s\n%.300s", got, encoderBytes(t, in, slots))
			}
			snap := snapshotSession(t, tsA.URL, id)
			restoreSessionHTTP(t, tsB.URL, snap)
			slots = append(slots, postAllocations(t, tsA.URL, id, 3, in.T)...)
			if got := getSchedule(t, tsA.URL, id); !bytes.Equal(got, encoderBytes(t, in, slots)) {
				t.Fatal("finished body differs from encoding/json's")
			}
			file, err := os.ReadFile(filepath.Join(dir, id))
			if err != nil {
				t.Fatal(err)
			}
			if whole := snapshotSession(t, tsA.URL, id); !bytes.Equal(file, whole) {
				t.Fatal("the appended snapshot log differs from the whole snapshot")
			}
			restored := append(slots[:3:3], postAllocations(t, tsB.URL, id, 3, in.T)...)
			if got := getSchedule(t, tsB.URL, id); !bytes.Equal(got, encoderBytes(t, in, restored)) {
				t.Fatal("restored session's body differs from encoding/json's")
			}
		})
	}
}

// stallingWriter is a ResponseWriter whose first Write signals started and
// blocks until release is closed.
type stallingWriter struct {
	header           http.Header
	started, release chan struct{}
	once             sync.Once
	body             bytes.Buffer
}

func (w *stallingWriter) Header() http.Header { return w.header }
func (w *stallingWriter) WriteHeader(int)     {}
func (w *stallingWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.started)
		<-w.release
	})
	return w.body.Write(p)
}

// TestScheduleStreamDoesNotHoldSlots streams GET /schedule into a reader
// that stalls mid-body while the session commits the rest of its slots:
// the slots must not wait on it, and the stalled body must be the slots
// committed when it was asked for. Run under -race it also checks that the
// walk reads nothing the later slots write.
func TestScheduleStreamDoesNotHoldSlots(t *testing.T) {
	in := testInstance(t, 120, 10, 23)
	srv, ts := newTestServer(t, Config{})
	id := createWithOptions(t, ts.URL, in, map[string]any{"candidates": 2, "incremental": true, "incrementalTol": 0.5})
	const asked = 6
	slots := postAllocations(t, ts.URL, id, 0, asked)
	want := encoderBytes(t, in, slots)
	if len(want) <= 32<<10 {
		t.Fatalf("a %d-byte body fits the encoder's buffer: the stall would not come mid-walk", len(want))
	}

	w := &stallingWriter{header: http.Header{}, started: make(chan struct{}), release: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/sessions/"+id+"/schedule", nil))
	}()
	select {
	case <-w.started:
	case <-time.After(time.Minute):
		t.Fatal("GET /schedule wrote nothing")
	}
	watchdog := time.AfterFunc(time.Minute, func() { close(w.release) })
	slots = append(slots, postAllocations(t, ts.URL, id, asked, in.T)...)
	if !watchdog.Stop() {
		t.Fatal("slots waited on a stalled schedule reader")
	}
	close(w.release)
	<-served
	if !bytes.Equal(w.body.Bytes(), want) {
		t.Fatalf("stalled body is not the %d slots committed when it was asked for", asked)
	}
	if got := getSchedule(t, ts.URL, id); !bytes.Equal(got, encoderBytes(t, in, slots)) {
		t.Fatal("finished body differs from encoding/json's")
	}
}
