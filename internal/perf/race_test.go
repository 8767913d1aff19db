//go:build race

package perf

// raceEnabled reports a -race build, whose sync.Pool drops a random quarter
// of what is put back, so pooled buffers cannot be held to a byte ceiling.
const raceEnabled = true
