package serve

import (
	"bytes"
	"context"
	"testing"
	"time"

	"edgealloc/internal/core"
	"edgealloc/internal/model"
	"edgealloc/internal/scenario"
)

// FuzzSnapshotRoundTrip throws arbitrary bytes at the session snapshot
// codec and checks the invariants a restorable snapshot must hold:
//
//  1. Byte stability: decode → restore → encode is the identity, so a
//     session read back from its log can keep appending to it, and
//     snapshots can be compared, content-hashed and shipped between
//     replicas without drift.
//  2. Warm-state equivalence: the algorithm rebuilt by restoreSession
//     exports exactly the warm state the records carried — nothing of
//     the iterate, the duals, or the per-slot dual record is lost or
//     invented on the way through the codec.
//  3. File-mode tolerance only ever drops a tail: whatever the lenient
//     decoder accepts re-encodes to a prefix of the input.
//
// Bytes that do not decode into a valid snapshot must be rejected with
// an error (never a panic); they are skipped.
func FuzzSnapshotRoundTrip(f *testing.F) {
	srv := New(Config{})
	f.Cleanup(func() { _ = srv.Close() })

	// Seed with real snapshots at several depths, including the
	// never-advanced slot-0 edge (corpusgen commits richer variants
	// under testdata/fuzz).
	in, _, err := scenario.Rome(scenario.Config{Users: 3, Horizon: 3, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	var inst bytes.Buffer
	if err := model.WriteInstance(&inst, in); err != nil {
		f.Fatal(err)
	}
	header, err := encodeHeader(snapHeader{Version: snapshotVersion, ID: "seed", Instance: inst.Bytes()})
	if err != nil {
		f.Fatal(err)
	}
	for _, slots := range []int{0, 1, 3} {
		sess := &session{id: "seed", srv: srv, inst: in, header: header,
			alg: core.NewOnlineApprox(in, core.Options{})}
		for t := 0; t < slots; t++ {
			if _, err := sess.alg.StepCtx(context.Background(), t); err != nil {
				f.Fatal(err)
			}
			if sess.recordSlot(t, time.Time{}).Done {
				sess.finish()
			}
		}
		doc, err := sess.encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	f.Add([]byte(`{"version":1,"id":"x"}`))
	f.Add([]byte(`not a snapshot`))

	f.Fuzz(func(t *testing.T, data []byte) {
		if d, err := decodeSnapshot(data, true); err == nil {
			if sess, err := srv.restoreSession(d); err == nil {
				if kept, err := sess.encode(); err != nil || !bytes.HasPrefix(data, kept) {
					t.Fatalf("file-mode decode kept something that is not a prefix of the input (%v)", err)
				}
			}
		}
		d, err := decodeSnapshot(data, false)
		if err != nil {
			t.Skip()
		}
		sess, err := srv.restoreSession(d)
		if err != nil {
			// Invalid snapshots must fail closed; reaching here without a
			// panic is the property.
			t.Skip()
		}

		// (1) Canonical-encoding stability.
		b1, err := sess.encode()
		if err != nil || !bytes.Equal(b1, data) {
			t.Fatalf("decode/restore/encode changed the document:\n%q\nvs\n%q", data, b1)
		}

		// (2) Warm-state fidelity through restore.
		if msg := warmStatesEquiv(d.warmState(), sess.alg.ExportState()); msg != "" {
			t.Fatalf("restored warm state diverged: %s", msg)
		}

		// The restored session must also snapshot back to a restorable
		// document (closure under the round trip).
		d2, err := decodeSnapshot(b1, false)
		if err != nil {
			t.Fatalf("re-snapshot of restored session does not decode: %v", err)
		}
		if _, err := srv.restoreSession(d2); err != nil {
			t.Fatalf("re-snapshot of restored session not restorable: %v", err)
		}
	})
}

// warmStatesEquiv compares warm states semantically: float-for-float
// equality, with nil and empty slices identified (JSON does not
// distinguish an absent list from an empty one).
func warmStatesEquiv(a, b *core.WarmState) string {
	if a == nil || b == nil {
		if a != b {
			return "one state nil"
		}
		return ""
	}
	if a.Slot != b.Slot {
		return "slot differs"
	}
	if msg := rowsEquiv("schedule", a.Schedule, b.Schedule); msg != "" {
		return msg
	}
	return rowsEquiv("duals", a.Duals, b.Duals)
}

func rowsEquiv(name string, a, b [][]float64) string {
	if len(a) != len(b) {
		return name + " row count differs"
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return name + " row length differs"
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return name + " values differ"
			}
		}
	}
	return ""
}
