// Package perf holds the micro-kernels: ten `go test -bench` benchmarks
// (`make bench`; compare two runs with benchstat) and TestHotPathAllocs,
// the tier-1 test that pins the allocs/op of every solver kernel but
// ShardStep, whose parallel passes start goroutines, holds
// IncrementalStep and ServeSlot — one slot through the serving daemon's
// handler — under an eighth of a decision grid in bytes per operation,
// holds Certificate — the dual certificate of a finished run at the
// serving geometry — to one allocation count at two horizons, and holds
// Restore — a finished session restored from its snapshot through the
// daemon's handler — to a growth in bytes per operation of under one and a
// half decision grids per slot between two horizons. All are built from
// the same kernel constructors (kernels_test.go), so the pin and the
// benchmark measure the same code.
//
// What a slot advance costs — latency beside the cost and certified
// ratio it bought, host-speed corrected — is measured only by the
// repository benchmark, `bash bench/run.sh` (bench/README.md).
package perf
