// Package perf holds the solver micro-kernels: seven `go test -bench`
// benchmarks (`make bench`; compare two runs with benchstat) and
// TestHotPathAllocs, the tier-1 test that pins the allocs/op of every
// kernel but ShardStep, whose parallel passes start goroutines. Both are
// built from the same kernel constructors (kernels_test.go), so the pin
// and the benchmark measure the same code.
//
// What a slot advance costs — latency beside the cost and certified
// ratio it bought, host-speed corrected — is measured only by the
// repository benchmark, `bash bench/run.sh` (bench/README.md).
package perf
