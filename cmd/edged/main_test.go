package main

import (
	"bytes"
	"flag"
	"io"
	"slices"
	"strings"
	"testing"
)

func TestRunExitCodes(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want int
		errs string // substring required on stderr
	}{
		{"bad flag", []string{"-nope"}, 2, "-nope"},
		{"non-duration ttl", []string{"-session-ttl", "soon"}, 2, "invalid"},
		{"unlistenable addr", []string{"-addr", "256.256.256.256:99999"}, 1, "listener failed"},
		{"autosnapshot without dir", []string{"-autosnapshot"}, 2, "-autosnapshot requires -snapshot-dir"},
		{"shard workers without shards", []string{"-shard-workers", "http://127.0.0.1:9711"}, 2, "-shard-workers requires -shards"},
		{"incremental with shards", []string{"-incremental", "-shards", "2"}, 2, "-incremental does not compose with -shards"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var stderr bytes.Buffer
			if got := run(tt.args, &stderr); got != tt.want {
				t.Fatalf("run(%v) = %d, want %d (stderr %q)", tt.args, got, tt.want, stderr.String())
			}
			if !strings.Contains(stderr.String(), tt.errs) {
				t.Errorf("stderr %q missing %q", stderr.String(), tt.errs)
			}
		})
	}
}

// TestFlagNamesGolden lists every flag edged accepts: none is added,
// removed or renamed without this list changing with it.
func TestFlagNamesGolden(t *testing.T) {
	want := []string{
		"addr", "autosnapshot", "drain-wait", "fastmath", "incremental",
		"incremental-tol", "log-json", "max-sessions", "queue", "session-queue",
		"session-ttl", "shard-workers", "shards", "snapshot-dir", "step-timeout",
		"workers",
	}
	var got []string
	newFlagSet(new(options), io.Discard).VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if !slices.Equal(got, want) {
		t.Errorf("edged flags\n got %q\nwant %q", got, want)
	}
}
