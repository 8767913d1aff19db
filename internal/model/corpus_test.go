package model_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"edgealloc/internal/conform"
	"edgealloc/internal/model"
	"edgealloc/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite the committed seed corpus from its generator")

// TestSeedCorpusCurrent regenerates FuzzInstanceDecode's committed seed
// corpus in memory and requires the files to match it byte for byte: real
// encoded instances (toy, generated, Rome-derived) beside near-valid JSON
// the decoder must reject cleanly. `go test -run TestSeedCorpusCurrent
// -update` rewrites them.
func TestSeedCorpusCurrent(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("seeds are recorded on amd64; other targets fuse multiply-adds")
	}
	rome, _, err := scenario.Rome(scenario.Config{Users: 4, Horizon: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[string][]byte{
		"seed-unknown-field": []byte(`{"I":1,"J":1,"T":1,"Bogus":3}`),
		"seed-huge-number":   []byte(`{"I":1,"J":1,"T":1,"Workload":[1e308],"Capacity":[1e308]}`),
		"seed-negative-dims": []byte(`{"I":-1,"J":-1,"T":-1}`),
	}
	for name, in := range map[string]*model.Instance{
		"seed-toy":       model.ToyExampleA(),
		"seed-rome":      rome,
		"seed-generated": conform.GenInstance(conform.GenConfig{Seed: 99, I: 4, J: 5, T: 3, Tight: true}),
	} {
		var buf bytes.Buffer
		if err := model.WriteInstance(&buf, in); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		seeds[name] = buf.Bytes()
	}
	checkCorpus(t, filepath.Join("testdata", "fuzz", "FuzzInstanceDecode"), seeds)
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
