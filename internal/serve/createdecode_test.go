package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"edgealloc/internal/conform"
	"edgealloc/internal/jsonscan"
	"edgealloc/internal/model"
)

// sameInstance describes how two decoded instances differ, float bits and
// nil versus empty slices included, or returns "": json.Marshal's bytes
// tell −0 from +0, which reflect.DeepEqual does not.
func sameInstance(got, want *model.Instance) string {
	gb, gerr := json.Marshal(got)
	wb, werr := json.Marshal(want)
	if !reflect.DeepEqual(got, want) || gerr != nil || werr != nil || !bytes.Equal(gb, wb) {
		return fmt.Sprintf("instance %s (%v) vs %s (%v)", gb, gerr, wb, werr)
	}
	return ""
}

// createDiff runs body, followed by the error rerr that ends reading it
// (none if nil), through the create endpoint's decodeCreate and through
// decodeBody, and describes the first difference in what they write or
// decode; for a body the fast path took, also between its instance and
// encoding/json's and between createHeader's header and encodeHeader's.
func createDiff(body []byte, rerr error) string {
	post := func() *http.Request { return &http.Request{Body: io.NopCloser(jsonscan.Replay(body, rerr))} }
	var got, want createRequest
	gotW, wantW := httptest.NewRecorder(), httptest.NewRecorder()
	inst, gotOK := decodeCreate(gotW, post(), &got)
	wantOK := decodeBody(wantW, post(), &want)
	switch {
	case gotOK != wantOK || gotW.Code != wantW.Code || !bytes.Equal(gotW.Body.Bytes(), wantW.Body.Bytes()):
		return fmt.Sprintf("decodeCreate: %v %d %q; decodeBody: %v %d %q",
			gotOK, gotW.Code, gotW.Body, wantOK, wantW.Code, wantW.Body)
	case !gotOK:
		return ""
	case got.ID != want.ID || got.Horizon != want.Horizon || got.Options != want.Options ||
		!bytes.Equal(got.Instance, want.Instance):
		return fmt.Sprintf("decodeCreate %+v; decodeBody %+v", got, want)
	case inst == nil:
		return ""
	}
	ref, err := decodeInstance(want.Instance)
	if err != nil {
		return fmt.Sprintf("fast path took an instance encoding/json refuses: %v", err)
	}
	if msg := sameInstance(inst, ref); msg != "" {
		return msg
	}
	h := snapHeader{Version: snapshotVersion, ID: got.ID, Horizon: got.Horizon, Options: got.Options, Instance: got.Instance}
	gotH, gotErr := createHeader(h, true)
	wantH, wantErr := encodeHeader(h)
	if !bytes.Equal(gotH, wantH) || (gotErr == nil) != (wantErr == nil) {
		return fmt.Sprintf("createHeader %q (%v); encodeHeader %q (%v)", gotH, gotErr, wantH, wantErr)
	}
	return ""
}

// headerDiff holds the snapshot header's fast path to encoding/json:
// readHeader ends doc's header line where decodeHeaderJSON ends it and
// decodes the same header and error, on either path, and an instance it
// read on the fast path is the one decodeInstance decodes.
func headerDiff(doc []byte) string {
	var d snapDoc
	end, err := d.readHeader(doc)
	var want snapHeader
	wantEnd, wantErr := decodeHeaderJSON(doc, &want)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		return fmt.Sprintf("readHeader: %v; decodeHeaderJSON: %v", err, wantErr)
	}
	if err != nil {
		return ""
	}
	h := d.header
	if end != wantEnd || h.Version != want.Version || h.ID != want.ID || h.Horizon != want.Horizon ||
		h.Options != want.Options || !bytes.Equal(h.Instance, want.Instance) {
		return fmt.Sprintf("readHeader %+v ending at %d; decodeHeaderJSON %+v ending at %d", h, end, want, wantEnd)
	}
	if d.inst == nil {
		return ""
	}
	ref, err := decodeInstance(want.Instance)
	if err != nil {
		return fmt.Sprintf("header fast path took an instance encoding/json refuses: %v", err)
	}
	return sameInstance(d.inst, ref)
}

// createBodies are FuzzCreateDecode's seeds: canonical create bodies and
// snapshot headers, and the kinds the fast path hands over.
func createBodies(t testing.TB) map[string][]byte {
	in := conform.GenInstance(conform.GenConfig{Seed: 5, I: 3, J: 4, T: 2, Tight: true})
	compact, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := model.WriteInstance(&indented, in); err != nil {
		t.Fatal(err)
	}
	skeleton := *in
	skeleton.T, skeleton.OpPrice, skeleton.Attach, skeleton.AccessDelay = 0, nil, nil, nil
	stream, err := json.Marshal(map[string]any{"id": "stream", "instance": &skeleton, "horizon": 3})
	if err != nil {
		t.Fatal(err)
	}
	opts, err := json.Marshal(solverOptions{Epsilon1: 0.5, Candidates: 3, CandidateTol: 1e-6, FastMath: true})
	if err != nil {
		t.Fatal(err)
	}
	header, err := encodeHeader(snapHeader{Version: snapshotVersion, ID: "head", Horizon: 3,
		Options: solverOptions{FastMath: true}, Instance: compact})
	if err != nil {
		t.Fatal(err)
	}
	all, err := os.ReadFile(filepath.Join("testdata", "wire_options.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	with := func(format string) []byte { return []byte(fmt.Sprintf(format, compact)) }
	return map[string][]byte{
		"canon-replay":      with(`{"id":"replay","instance":%s}`),
		"canon-stream":      stream,
		"canon-options":     []byte(fmt.Sprintf(`{"options":%s,"instance":%s,"horizon":2}`, opts, compact)),
		"canon-all-options": []byte(fmt.Sprintf(`{"instance":%s,"options":%s}`, compact, all)),
		"canon-spaced":      []byte(fmt.Sprintf("{ \"instance\" : %s , \"id\" : \"sp\" }\n", indented.Bytes())),
		"canon-header":      header,
		"unknown-key":       with(`{"id":"u","bogus":1,"instance":%s}`),
		"unknown-inst-key":  []byte(strings.Replace(string(with(`{"instance":%s}`)), `"WOp"`, `"Bogus":1,"WOp"`, 1)),
		"duplicate-key":     with(`{"id":"a","id":"dup","instance":%s}`),
		"case-variant-key":  with(`{"ID":"case","instance":%s}`),
		"version-key":       with(`{"version":3,"instance":%s}`),
		"escaped-id":        with(`{"id":"a\u0062","instance":%s}`),
		"null-instance":     []byte(`{"id":"n","instance":null}`),
		"canon-null-opts":   with(`{"options":null,"instance":%s}`),
		"bad-option":        with(`{"options":{"shards":1.5},"instance":%s}`),
		"unknown-option":    with(`{"options":{"bogus":true},"instance":%s}`),
		"canon-option-case": with(`{"options":{"FASTMATH":true},"instance":%s}`),
		"trailing-bytes":    with(`{"instance":%s} {}`),
		"truncated":         with(`{"instance":%s`),
		"header-version-2":  bytes.Replace(header, []byte(`"version":3`), []byte(`"version":2`), 1),
	}
}

// FuzzCreateDecode checks the create body's fast path against
// encoding/json: whatever the endpoint decodes, on either path, is what
// decodeBody decodes or writes, and on the fast path the instance is
// encoding/json's and the spliced header encodeHeader's, byte for byte.
// Each input is also tried as a snapshot header line (headerDiff).
func FuzzCreateDecode(f *testing.F) {
	for _, body := range createBodies(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if msg := createDiff(body, nil); msg != "" {
			t.Fatalf("body %q: %s", body, msg)
		}
		doc := append(bytes.TrimRight(body, "\n"), '\n')
		if msg := headerDiff(doc); msg != "" {
			t.Fatalf("header %q: %s", doc, msg)
		}
	})
}

// TestCreateDecodeSeeds pins the seeds: the canon-* bodies take the fast
// path and the others do not, and a body cut short by an oversized read —
// the error http.MaxBytesReader returns past maxBodyBytes, replayed here
// rather than read from a quarter-gigabyte body — gets what decodeBody
// gives it.
func TestCreateDecodeSeeds(t *testing.T) {
	for name, body := range createBodies(t) {
		p := jsonscan.New(body)
		env, ok := parseEnvelope(&p)
		fast := ok && p.End() && !env.hasVersion
		if name == "canon-header" {
			var d snapDoc
			_, err := d.readHeader(body)
			fast = err == nil && d.inst != nil
		}
		if want := strings.HasPrefix(name, "canon-"); fast != want {
			t.Errorf("%s: fast path %v, want %v", name, fast, want)
		}
		if msg := createDiff(body, nil); msg != "" {
			t.Errorf("%s: %s", name, msg)
		}
		if msg := headerDiff(body); msg != "" {
			t.Errorf("%s as a header: %s", name, msg)
		}
	}
	tooLarge := &http.MaxBytesError{Limit: maxBodyBytes}
	body := createBodies(t)["canon-replay"]
	for _, cut := range []int{len(body) / 2, len(body)} {
		if msg := createDiff(body[:cut], tooLarge); msg != "" {
			t.Errorf("body of %d bytes, then %v: %s", cut, tooLarge, msg)
		}
	}
}

// TestCreateReplies drives the create endpoint with the bodies whose
// replies the fast path must not change — an oversized body, an unknown
// key in the envelope and in the instance, a duplicate key, a case-variant
// key and a WriteInstance-indented instance — and holds each to the status
// and message encoding/json's path gives it, and a created session's
// snapshot header to the bytes encodeHeader writes for its request.
func TestCreateReplies(t *testing.T) {
	seeds := createBodies(t)
	in := conform.GenInstance(conform.GenConfig{Seed: 5, I: 3, J: 4, T: 2, Tight: true})
	var indented bytes.Buffer
	if err := model.WriteInstance(&indented, in); err != nil {
		t.Fatal(err)
	}
	tooLarge := &http.MaxBytesError{Limit: maxBodyBytes}
	for _, c := range []struct {
		name string
		body []byte
		rerr error
		code int
		want string // the error, or the created session's id
	}{
		{"oversized", seeds["canon-replay"][:40], tooLarge, http.StatusBadRequest, "decoding request: http: request body too large"},
		{"unknown-key", seeds["unknown-key"], nil, http.StatusBadRequest, `decoding request: json: unknown field "bogus"`},
		{"unknown-inst-key", seeds["unknown-inst-key"], nil, http.StatusBadRequest, `decoding instance: json: unknown field "Bogus"`},
		{"duplicate-key", seeds["duplicate-key"], nil, http.StatusCreated, "dup"},
		{"case-variant-key", seeds["case-variant-key"], nil, http.StatusCreated, "case"},
		{"indented", []byte(fmt.Sprintf(`{"id":"ind","instance":%s}`, indented.Bytes())), nil, http.StatusCreated, "ind"},
		{"canonical", seeds["canon-replay"], nil, http.StatusCreated, "replay"},
	} {
		srv := New(Config{})
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", jsonscan.Replay(c.body, c.rerr)))
		var reply struct {
			Error string `json:"error"`
			ID    string `json:"id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatalf("%s: reply %q: %v", c.name, rec.Body, err)
		}
		if got := reply.Error + reply.ID; rec.Code != c.code || got != c.want {
			t.Errorf("%s: %d %q, want %d %q", c.name, rec.Code, got, c.code, c.want)
		}
		if msg := createDiff(c.body, c.rerr); msg != "" {
			t.Errorf("%s: %s", c.name, msg)
		}
		if rec.Code == http.StatusCreated {
			var req createRequest
			if err := json.Unmarshal(c.body, &req); err != nil {
				t.Fatal(err)
			}
			want, err := encodeHeader(snapHeader{Version: snapshotVersion, ID: reply.ID, Instance: req.Instance})
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions/"+reply.ID+"/snapshot", nil))
			if got, _, _ := bytes.Cut(rec.Body.Bytes(), []byte("\n")); !bytes.Equal(append(got, '\n'), want) {
				t.Errorf("%s: snapshot header %q, want encodeHeader's %q", c.name, got, want)
			}
			var d snapDoc
			if _, err := d.readHeader(rec.Body.Bytes()); err != nil || d.inst == nil {
				t.Errorf("%s: restoring the snapshot does not read its header on the fast path (%v)", c.name, err)
			}
		}
		srv.Close()
	}
}
