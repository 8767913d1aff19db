package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"

	"edgealloc/internal/jsonscan"
	"edgealloc/internal/model"
)

// A create body and a snapshot header carry the session's instance, the
// largest JSON either endpoint reads: an I×J Init grid and, in replay
// mode, the T-slot time-major arrays. Both are read in one pass on a fast
// path that accepts the canonical form clients and encodeHeader write:
//
//   - one JSON object whose keys are spelled exactly as snapHeader's tags
//     (no escapes, no other case), each at most once, in any order —
//     "version" only in a snapshot header;
//   - "id" a string of printable ASCII without escapes, "version" and
//     "horizon" integers, "options" an object of scalars (what
//     jsonscan.Skip passes over) that encoding/json decodes into
//     solverOptions, and "instance" an object model.ParseInstance takes.
//
// An accepted document decodes to what encoding/json decodes from it
// (FuzzCreateDecode); anything else goes to encoding/json over the same
// bytes, so it gets the status and message it got before the fast path
// existed.

// envelope is a create body or a snapshot header as the fast path reads
// it: Instance holds the instance's bytes in the input, inst the instance
// decoded from them.
type envelope struct {
	snapHeader
	hasVersion bool
	inst       *model.Instance
}

// parseEnvelope decodes the object at p on the fast path and reports
// whether it was canonical. It leaves p just past the object. The options,
// a few dozen bytes, are decoded by encoding/json from their span.
func parseEnvelope(p *jsonscan.Scanner) (env envelope, ok bool) {
	var options []byte
	ok = p.Object(func(key []byte) (int, bool) {
		var ok bool
		switch string(key) {
		case "version":
			env.Version, ok = p.Int()
			env.hasVersion = true
			return 0, ok
		case "id":
			env.ID, ok = p.Str()
			return 1, ok
		case "horizon":
			env.Horizon, ok = p.Int()
			return 2, ok
		case "options":
			start := p.Pos()
			ok = p.Skip()
			options = p.Since(start)
			return 3, ok
		case "instance":
			start := p.Pos()
			env.inst, ok = model.ParseInstance(p)
			env.Instance = p.Since(start)
			return 4, ok
		}
		return 0, false
	})
	if ok && options != nil {
		dec := json.NewDecoder(bytes.NewReader(options))
		dec.DisallowUnknownFields()
		ok = dec.Decode(&env.Options) == nil
	}
	return env, ok
}

// decodeCreate is decodeBody for the create endpoint: it reads the body
// whole through the same MaxBytesReader and decodes it into req. On the
// fast path req.Instance is the instance's bytes in the body and inst the
// instance decoded from them; on any other body inst is nil and req is
// what decodeBody decodes. On failure the 400 has been written.
func decodeCreate(w http.ResponseWriter, r *http.Request, req *createRequest) (inst *model.Instance, ok bool) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= maxBodyBytes {
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	body := buf.Bytes()
	if err == nil {
		p := jsonscan.New(body)
		if env, ok := parseEnvelope(&p); ok && !env.hasVersion && p.End() {
			*req = createRequest{ID: env.ID, Instance: env.Instance, Horizon: env.Horizon, Options: env.Options}
			return env.inst, true
		}
	}
	*req = createRequest{}
	return nil, decodeJSON(w, jsonscan.Replay(body, err), req)
}

// createHeader renders the snapshot header of a session created from h.
// An instance the fast path read (fast) holds nothing but JSON's
// punctuation, digits, letters and whitespace, so without whitespace — and,
// to hold to json.Marshal's compaction of a RawMessage whatever the path,
// without <, > and & — its bytes are what encodeHeader would write for it,
// and are spliced in as they came. Any other header is encodeHeader's.
func createHeader(h snapHeader, fast bool) ([]byte, error) {
	if !fast || bytes.ContainsAny(h.Instance, " \t\n\r<>&") {
		return encodeHeader(h)
	}
	raw := h.Instance
	h.Instance = json.RawMessage("0")
	head, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("encoding snapshot header: %w", err)
	}
	head = head[:len(head)-len("0}")] // the instance is the last field
	out := make([]byte, 0, len(head)+len(raw)+len("}\n"))
	return append(append(append(out, head...), raw...), "}\n"...), nil
}
