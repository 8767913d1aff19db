package numkernel

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the committed seed corpus from its generator")

// TestSeedCorpusCurrent regenerates FuzzFastMathVsStdlib's committed seed
// corpus in memory and requires the files to match it byte for byte: the
// boundary operands of the batch log kernel — exact powers of two (where
// the reduction's exponent split lands on a bucket edge), the neighbors of
// 1 (where the log table pins c=1 against cancellation), subnormals and the
// extremes of the finite range, and the non-finite specials. Each file is
// the operand's bit pattern. `go test -run TestSeedCorpusCurrent -update`
// rewrites them.
func TestSeedCorpusCurrent(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzFastMathVsStdlib")
	for name, bits := range map[string]uint64{
		"seed-one":           math.Float64bits(1),
		"seed-one-next":      math.Float64bits(math.Nextafter(1, 2)),
		"seed-one-prev":      math.Float64bits(math.Nextafter(1, 0)),
		"seed-sqrt2-over-2":  math.Float64bits(math.Sqrt2 / 2),
		"seed-pow2":          math.Float64bits(0x1p-30),
		"seed-min-subnormal": 1,
		"seed-min-normal":    math.Float64bits(0x1p-1022),
		"seed-max-float":     math.Float64bits(math.MaxFloat64),
		"seed-negative":      math.Float64bits(-1),
		"seed-inf-nan":       math.Float64bits(math.Inf(1)),
		"seed-neg-inf":       math.Float64bits(math.Inf(-1)),
	} {
		want := []byte(fmt.Sprintf("go test fuzz v1\nuint64(%d)\n", bits))
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
