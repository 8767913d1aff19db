package serve

import (
	"bytes"
	"context"
	"fmt"
	"math"
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
//     walks exactly the decisions the records carried and holds exactly
//     their dual rows, bit for bit — nothing of the iterate, the duals,
//     or the per-slot dual record is lost or invented on the way through
//     the codec.
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
		want := d.warmState()
		if msg := runEquiv(want.Schedule, want.Duals, sess.alg); msg != "" {
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

// sameEntries reports how the stored entries nz differ from the entries of
// the grid x whose bit pattern is not zero, or "" if they do not.
func sameEntries(x []float64, nz []core.Entry) string {
	k := 0
	for idx, v := range x {
		if math.Float64bits(v) == 0 {
			continue
		}
		if k == len(nz) || nz[k].Index != idx || math.Float64bits(nz[k].Value) != math.Float64bits(v) {
			return fmt.Sprintf("entry %d = %v is not stored entry %d", idx, v, k)
		}
		k++
	}
	if k != len(nz) {
		return fmt.Sprintf("%d entries stored, %d nonzero", len(nz), k)
	}
	return ""
}

// runEquiv compares the decisions alg's Decisions view walks and its dual
// record with the given ones (decisions as their stored entries), bit for
// bit, with nil and empty slices identified.
func runEquiv(sched [][]core.Entry, duals [][]float64, alg *core.OnlineApprox) string {
	view := alg.Decisions()
	if view.Len() != len(sched) {
		return fmt.Sprintf("%d decisions walked, want %d", view.Len(), len(sched))
	}
	msg := ""
	view.Walk(func(t int, x model.Alloc) bool {
		if msg = sameEntries(x.X, sched[t]); msg != "" {
			msg = fmt.Sprintf("slot %d: %s", t, msg)
		}
		return msg == ""
	})
	if msg != "" {
		return msg
	}
	got := alg.Duals()
	if len(got) != len(duals) {
		return "dual row count differs"
	}
	for t := range duals {
		if len(got[t]) != len(duals[t]) {
			return "dual row length differs"
		}
		for k := range duals[t] {
			if math.Float64bits(got[t][k]) != math.Float64bits(duals[t][k]) {
				return fmt.Sprintf("duals[%d][%d] differ", t, k)
			}
		}
	}
	return ""
}
