package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"edgealloc/internal/model"
)

// TestGoldenRomeDigests pins the exact bytes of two generated Rome
// instances: the benchmark's 1,024-slot day and the paper-scale run of
// 300 users over an hour. Every attachment, access delay and workload is
// in the encoding, so a change to the taxi trace, the nearest-station
// search or the assembly that moves one bit moves a digest. They must
// only change with a deliberate, explained change to the generator.
func TestGoldenRomeDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are recorded on amd64; other targets fuse multiply-adds")
	}
	for _, tc := range []struct {
		name   string
		cfg    Config
		digest string
	}{
		{"bench-day", Config{Users: 60, Horizon: 1024, Seed: 20140212},
			"d55f95c64af915469510aa8a9b4ce710fa486269ca8015c9e09a5aa6f544e37a"},
		{"paper-scale", Config{Users: 300, Horizon: 60, Seed: 1},
			"610e22a1e5dc9a373ffe280135fa24b56e5960457e455cca017f73d02e8b746e"},
	} {
		in, _, err := Rome(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		h := sha256.New()
		if err := model.WriteInstance(h, in); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.digest {
			t.Errorf("%s: instance digest %s, want %s", tc.name, got, tc.digest)
		}
	}
}
