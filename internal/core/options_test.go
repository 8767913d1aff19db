package core

import (
	"flag"
	"io"
	"reflect"
	"testing"
)

// TestBindFlagsRoundTrip parses the shared tier flags into an Options and
// requires the struct the CLIs used to assemble by hand: blank items of
// the -shard-workers list dropped, everything unnamed left zero.
func TestBindFlagsRoundTrip(t *testing.T) {
	var got Options
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	got.BindFlags(fs)
	err := fs.Parse([]string{"-fastmath", "-shards", "4", "-shard-workers", " a, ,b ", "-incremental-tol", "1e-3"})
	if err != nil {
		t.Fatal(err)
	}
	want := Options{FastMath: true, Shards: 4, ShardWorkers: []string{"a", "b"}, IncrementalTol: 1e-3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parsed %+v, want %+v", got, want)
	}

	var all Options
	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	all.BindFlags(fs)
	if err := fs.Parse([]string{"-fastmath", "-incremental"}); err != nil {
		t.Fatal(err)
	}
	if want := (Options{FastMath: true, Incremental: true}); !reflect.DeepEqual(all, want) {
		t.Errorf("parsed %+v, want %+v", all, want)
	}
}
