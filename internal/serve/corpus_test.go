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
// and with the solves' timings zeroed, plus near-valid documents that must
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
		// The records carry each solve's wall-clock seconds; the seeds
		// store them as zero, so that the generator is deterministic.
		srv.mu.Lock()
		sess := srv.sessions[d.name]
		srv.mu.Unlock()
		sess.mu.Lock()
		for k := range sess.meta {
			dg := &sess.meta[k].Diag
			dg.Seconds, dg.BindSeconds, dg.CertifySeconds, dg.CommitSeconds = 0, 0, 0, 0
		}
		sess.mu.Unlock()
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
