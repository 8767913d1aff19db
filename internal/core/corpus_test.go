package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the committed seed corpus from its generator")

// TestSeedCorpusCurrent regenerates FuzzIncrementalVsFull's generator-
// written seeds in memory and requires the files to match them byte for
// byte: the churn boundaries 0% (everyone frozen — the soundness gate
// alone keeps the result honest under price drift) and 100% (nothing
// freezes; the tier must degenerate to the plain candidate path), the
// single-user corner where one re-admission flips the whole program, a
// mid-churn multi-slot instance, and the tight-capacity regime where
// frozen flow dominates the residual right-hand side. Each is (seed, I, J,
// T, churn%) in the generator-clamp encoding. The seed-slack-* files were
// added by hand and are not checked. `go test -run TestSeedCorpusCurrent
// -update` rewrites the five.
func TestSeedCorpusCurrent(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("seeds are recorded on amd64")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzIncrementalVsFull")
	for name, v := range map[string][5]int64{
		"seed-zero-churn":  {41, 3, 4, 3, 0},
		"seed-full-churn":  {11, 2, 5, 3, 100},
		"seed-single-user": {97, 4, 1, 3, 50},
		"seed-mid-churn":   {7, 3, 5, 3, 35},
		"seed-tight-cap":   {20140212, 4, 5, 2, 20},
	} {
		want := []byte(fmt.Sprintf("go test fuzz v1\nint64(%d)\nint(%d)\nint(%d)\nint(%d)\nint(%d)\n",
			v[0], v[1], v[2], v[3], v[4]))
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
