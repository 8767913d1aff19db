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

// TestSeedCorpusCurrent regenerates the generator-written seeds of two
// fuzz targets in memory and requires the files to match them byte for
// byte. Each seed is five integers in the generator-clamp encoding the
// target spans. FuzzIncrementalVsFull's are (seed, I, J, T, churn%): the
// churn boundaries 0% (everyone frozen — the soundness gate alone keeps
// the result honest under price drift) and 100% (nothing freezes; the tier
// must degenerate to the plain candidate path), the single-user corner
// where one re-admission flips the whole program, a mid-churn multi-slot
// instance, and the tight-capacity regime where frozen flow dominates the
// residual right-hand side; its seed-slack-* files were added by hand and
// are not checked. FuzzShardVsDense's are (seed, I, J, T, S): the
// degenerate single-shard coordinator (pure overhead, must still match
// dense), shard counts past the user count (clamped to one user per shard,
// the raggedest split), the single-user and single-slot corners, and a
// mid-split multi-slot instance where consensus genuinely redistributes
// load. `go test -run TestSeedCorpusCurrent -update` rewrites the ten.
func TestSeedCorpusCurrent(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("seeds are recorded on amd64")
	}
	for target, seeds := range map[string]map[string][5]int64{
		"FuzzIncrementalVsFull": {
			"seed-zero-churn":  {41, 3, 4, 3, 0},
			"seed-full-churn":  {11, 2, 5, 3, 100},
			"seed-single-user": {97, 4, 1, 3, 50},
			"seed-mid-churn":   {7, 3, 5, 3, 35},
			"seed-tight-cap":   {20140212, 4, 5, 2, 20},
		},
		"FuzzShardVsDense": {
			"seed-single-shard":   {41, 3, 4, 2, 1},
			"seed-user-per-shard": {11, 2, 3, 3, 9},
			"seed-single-user":    {97, 4, 1, 2, 2},
			"seed-single-slot":    {7, 3, 5, 1, 3},
			"seed-mid-split":      {20140212, 4, 5, 3, 2},
		},
	} {
		for name, v := range seeds {
			want := []byte(fmt.Sprintf("go test fuzz v1\nint64(%d)\nint(%d)\nint(%d)\nint(%d)\nint(%d)\n",
				v[0], v[1], v[2], v[3], v[4]))
			path := filepath.Join("testdata", "fuzz", target, name)
			if *update {
				if err := os.WriteFile(path, want, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Errorf("%s/%s: %v (rewrite with -update)", target, name, err)
			} else if !bytes.Equal(got, want) {
				t.Errorf("%s/%s: the committed seed differs from its generator (rewrite with -update)", target, name)
			}
		}
	}
}
