package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// slotRequestDiff describes the first way two decoded slot requests differ
// — the slot pointer, a slice's nil-ness, length or element bits, the
// allocation flag — or returns "".
func slotRequestDiff(a, b slotRequest) string {
	switch {
	case (a.Slot == nil) != (b.Slot == nil):
		return fmt.Sprintf("slot set %v vs %v", a.Slot != nil, b.Slot != nil)
	case a.Slot != nil && *a.Slot != *b.Slot:
		return fmt.Sprintf("slot %d vs %d", *a.Slot, *b.Slot)
	case a.IncludeAllocation != b.IncludeAllocation:
		return "includeAllocation differs"
	}
	if msg := floatsDiff("opPrice", a.OpPrice, b.OpPrice); msg != "" {
		return msg
	}
	if msg := floatsDiff("accessDelay", a.AccessDelay, b.AccessDelay); msg != "" {
		return msg
	}
	if (a.Attach == nil) != (b.Attach == nil) || len(a.Attach) != len(b.Attach) {
		return fmt.Sprintf("attach %v vs %v", a.Attach, b.Attach)
	}
	for k := range a.Attach {
		if a.Attach[k] != b.Attach[k] {
			return fmt.Sprintf("attach[%d] %d vs %d", k, a.Attach[k], b.Attach[k])
		}
	}
	return ""
}

func floatsDiff(name string, a, b []float64) string {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return fmt.Sprintf("%s %v vs %v", name, a, b)
	}
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return fmt.Sprintf("%s[%d] %x vs %x", name, k, math.Float64bits(a[k]), math.Float64bits(b[k]))
		}
	}
	return ""
}

// decodersDiff runs body through the slot endpoint's decodeSlot and through
// decodeBody and describes the first difference in what they write or
// decode, or returns "".
func decodersDiff(body []byte) string {
	post := func() *http.Request { return &http.Request{Body: io.NopCloser(bytes.NewReader(body))} }
	var got, want slotRequest
	gotW, wantW := httptest.NewRecorder(), httptest.NewRecorder()
	release, gotOK := decodeSlot(gotW, post(), &got)
	if gotOK {
		defer release()
	}
	wantOK := decodeBody(wantW, post(), &want)
	switch {
	case gotOK != wantOK || gotW.Code != wantW.Code || !bytes.Equal(gotW.Body.Bytes(), wantW.Body.Bytes()):
		return fmt.Sprintf("decodeSlot: %v %d %q; decodeBody: %v %d %q",
			gotOK, gotW.Code, gotW.Body, wantOK, wantW.Code, wantW.Body)
	case gotOK:
		return slotRequestDiff(got, want)
	}
	return ""
}

// FuzzSlotRequestDecode checks the slot body's fast path against
// encoding/json: whatever it accepts, encoding/json with
// DisallowUnknownFields accepts too and decodes to the identical request,
// float bits, nil versus empty slices and the slot pointer included; and
// whatever it hands over, the endpoint's fallback writes and decodes
// exactly what decodeBody does. The committed seeds cover the
// canonical bodies (named canon-*) and the kinds the fast path hands over.
func FuzzSlotRequestDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var fast slotRequest
		if new(slotDecoder).parse(body, &fast) {
			var ref slotRequest
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&ref); err != nil {
				t.Fatalf("fast path accepted %q; encoding/json refuses it: %v", body, err)
			}
			if msg := slotRequestDiff(fast, ref); msg != "" {
				t.Fatalf("fast path and encoding/json decode %q differently: %s", body, msg)
			}
		} else if msg := decodersDiff(body); msg != "" {
			t.Fatalf("body %q: %s", body, msg)
		}
	})
}

// slotSeeds reads the committed FuzzSlotRequestDecode corpus by file name.
func slotSeeds(t *testing.T) map[string][]byte {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzSlotRequestDecode")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[string][]byte{}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		if lit, ok = strings.CutSuffix(lit, ")"); !ok {
			t.Fatalf("seed %s is not one []byte value", e.Name())
		}
		body, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("seed %s: %v", e.Name(), err)
		}
		seeds[e.Name()] = []byte(body)
	}
	return seeds
}

// TestSlotDecodeSeeds pins the committed seeds: the canon-* bodies take the
// fast path and every other one does not; and each non-canonical one gets
// from the slot endpoint what decodeBody gives it — the same request, or
// the same status and error body from the live handler.
func TestSlotDecodeSeeds(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	in := testInstance(t, 4, 3, 61)
	skeleton := *in
	skeleton.T = 0
	skeleton.OpPrice, skeleton.Attach, skeleton.AccessDelay = nil, nil, nil
	create, err := json.Marshal(map[string]any{"id": "seeds", "instance": &skeleton, "horizon": in.T})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(create)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}

	seeds := slotSeeds(t)
	canonical := 0
	for name, body := range seeds {
		var req slotRequest
		if fast, want := new(slotDecoder).parse(body, &req), strings.HasPrefix(name, "canon-"); fast != want {
			t.Errorf("%s: fast path %v, want %v", name, fast, want)
		} else if fast {
			canonical++
			continue
		}
		if msg := decodersDiff(body); msg != "" {
			t.Errorf("%s: %s", name, msg)
		}
		wantW := httptest.NewRecorder()
		if decodeBody(wantW, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), new(slotRequest)) {
			continue // a valid request: the handler goes on to serve it
		}
		gotW := httptest.NewRecorder()
		srv.Handler().ServeHTTP(gotW, httptest.NewRequest(http.MethodPost, "/v1/sessions/seeds/slots", bytes.NewReader(body)))
		if gotW.Code != wantW.Code || !bytes.Equal(gotW.Body.Bytes(), wantW.Body.Bytes()) {
			t.Errorf("%s: handler replied %d %q, decodeBody %d %q", name, gotW.Code, gotW.Body, wantW.Code, wantW.Body)
		}
	}
	if canonical == 0 || canonical == len(seeds) {
		t.Errorf("%d of %d seeds canonical: the corpus must hold both kinds", canonical, len(seeds))
	}
}
