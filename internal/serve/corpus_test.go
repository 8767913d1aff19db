package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"edgealloc/internal/conform"
	"edgealloc/internal/model"
	"edgealloc/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite the committed seed corpus from its generator")

// TestSeedCorpusCurrent regenerates FuzzSnapshotRoundTrip's committed seed
// corpus in memory and requires the files to match it byte for byte:
// genuine snapshots taken from an in-process daemon at depth 0 (created,
// never advanced: header only), mid-horizon (records with warm duals and a
// partial dual record) and full horizon (done; the last record carries the
// conformance summary), over both a Rome-derived and a generator instance
// (a record stores no timing, so the bytes are reproducible), plus
// near-valid documents that must
// be rejected cleanly (a version-1 JSON document, a wrong version, an id
// that escapes the directory, a torn last record and a flipped checksum
// byte — both fatal in a request body). `go test -run
// TestSeedCorpusCurrent -update` rewrites them.
func TestSeedCorpusCurrent(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("seeds are recorded on amd64; other targets fuse multiply-adds")
	}
	srv := New(Config{})
	defer srv.Close()
	call := func(path string, body []byte) []byte {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code >= 300 {
			t.Fatalf("POST %s: status %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	rome, _, err := scenario.Rome(scenario.Config{Users: 3, Horizon: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	gen := conform.GenInstance(conform.GenConfig{Seed: 21, I: 3, J: 4, T: 4})
	seeds := map[string][]byte{}
	for _, d := range []struct {
		name  string
		in    *model.Instance
		slots int
	}{
		{"seed-rome-fresh", rome, 0},
		{"seed-rome-mid", rome, 2},
		{"seed-rome-done", rome, rome.T},
		{"seed-gen-mid", gen, 3},
	} {
		var inst bytes.Buffer
		if err := model.WriteInstance(&inst, d.in); err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		create, _ := json.Marshal(map[string]any{"id": d.name, "instance": json.RawMessage(inst.Bytes())})
		call("/v1/sessions", create)
		for slot := 0; slot < d.slots; slot++ {
			call("/v1/sessions/"+d.name+"/slots", []byte(`{}`))
		}
		seeds[d.name] = call("/v1/sessions/"+d.name+"/snapshot", nil)
	}
	mid := seeds["seed-rome-mid"]
	flipped := bytes.Clone(mid)
	flipped[len(flipped)-1] ^= 0x01
	seeds["seed-torn-tail"] = mid[:len(mid)-7]
	seeds["seed-bad-checksum"] = flipped
	seeds["seed-v1-document"] = []byte(`{"version":1,"id":"x","instance":{"I":1,"J":1,"T":1},"state":{"slot":0,"schedule":[]}}`)
	seeds["seed-bad-version"] = bytes.Replace(mid, []byte(`"version":3`), []byte(`"version":2`), 1)
	seeds["seed-path-escape"] = bytes.Replace(mid, []byte(`"id":"seed-rome-mid"`), []byte(`"id":"../escape"`), 1)
	checkCorpus(t, filepath.Join("testdata", "fuzz", "FuzzSnapshotRoundTrip"), seeds)
}

// TestSnapshotStoresNoTiming feeds two daemons the same session, slot by
// slot, and requires their snapshots to be byte-identical: the records
// carry what the solves computed and no wall-clock time, the sharded
// path's slowest-block time included. The live replies keep their timings:
// every slot reply and the status reply report a positive solve time.
func TestSnapshotStoresNoTiming(t *testing.T) {
	in, _, err := scenario.Rome(scenario.Config{Users: 4, Horizon: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var inst bytes.Buffer
	if err := model.WriteInstance(&inst, in); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []solverOptions{{}, {Shards: 2}} {
		create, _ := json.Marshal(map[string]any{"id": "twin", "instance": json.RawMessage(inst.Bytes()), "options": opts})
		var snaps [2][]byte
		for k := range snaps {
			srv := New(Config{})
			call := func(method, path string, body []byte) []byte {
				rec := httptest.NewRecorder()
				srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
				if rec.Code >= 300 {
					t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body)
				}
				return rec.Body.Bytes()
			}
			call(http.MethodPost, "/v1/sessions", create)
			for slot := 0; slot < 3; slot++ {
				var reply struct {
					Solve solveDiag `json:"solve"`
				}
				if err := json.Unmarshal(call(http.MethodPost, "/v1/sessions/twin/slots", []byte(`{}`)), &reply); err != nil {
					t.Fatal(err)
				}
				if !(reply.Solve.Seconds > 0) {
					t.Errorf("shards %d: daemon %d slot %d: reply solve seconds %g, want the measured time", opts.Shards, k, slot, reply.Solve.Seconds)
				}
			}
			var status statusResponse
			if err := json.Unmarshal(call(http.MethodGet, "/v1/sessions/twin", nil), &status); err != nil {
				t.Fatal(err)
			}
			if status.LastSolve == nil || !(status.LastSolve.Seconds > 0) {
				t.Errorf("shards %d: daemon %d: status lastSolve %+v, want the measured time", opts.Shards, k, status.LastSolve)
			}
			snaps[k] = call(http.MethodPost, "/v1/sessions/twin/snapshot", nil)
			srv.Close()
		}
		if !bytes.Equal(snaps[0], snaps[1]) {
			t.Errorf("shards %d: two sessions fed the same inputs snapshot to different documents (%d and %d bytes)",
				opts.Shards, len(snaps[0]), len(snaps[1]))
		}
	}
}

// checkCorpus compares each seed, in the `go test fuzz v1` corpus format,
// with its file under dir, or writes it there under -update.
func checkCorpus(t *testing.T, dir string, seeds map[string][]byte) {
	t.Helper()
	for name, body := range seeds {
		want := []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", body))
		path := filepath.Join(dir, name)
		if *update {
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: %v (rewrite with -update)", name, err)
		} else if !bytes.Equal(got, want) {
			t.Errorf("%s: the committed seed differs from its generator (rewrite with -update)", name)
		}
	}
}
