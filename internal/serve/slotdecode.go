package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"

	"edgealloc/internal/jsonscan"
)

// A slot request is read whole into a pooled buffer and parsed on a fast
// path that accepts only the canonical form clients send:
//
//   - one JSON object, with nothing but whitespace around it;
//   - keys spelled exactly as slotRequest's tags (no escapes, no other
//     case), each at most once;
//   - "slot" an integer, the arrays numbers ("attach" integers), and
//     "includeAllocation" true or false — no null anywhere.
//
// Numbers are checked against the JSON grammar and converted by the same
// strconv calls encoding/json makes, so an accepted body decodes to the
// struct encoding/json would build from it, float bits, nil versus empty
// slices and all (FuzzSlotRequestDecode). Every other body — an unknown,
// duplicate, escaped or case-variant key, a null, trailing bytes, a number
// an integer field or float64 cannot hold — goes to the json.Decoder that
// decodeBody uses, over the same bytes followed by whatever error ended the
// read, so it gets the status and message it got before the fast path
// existed.

// maxPooledBody bounds the body buffer a slotDecoder keeps between
// requests; one that grew past it is dropped instead of pooled.
const maxPooledBody = 1 << 20

// slotDecoder holds what one POST …/slots decode reuses: the body and the
// slot number and slices the fast path decodes into.
type slotDecoder struct {
	body                 bytes.Buffer
	slot                 int
	opPrice, accessDelay []float64
	attach               []int
}

var slotDecoders = sync.Pool{New: func() any { return new(slotDecoder) }}

// decodeSlot is decodeBody for the slot endpoint: it reads the body whole
// through the same MaxBytesReader and decodes it into req, on the fast path
// when the body is canonical. On success req's slices may alias pooled
// memory, valid until release is called; on failure the 400 has been
// written.
func decodeSlot(w http.ResponseWriter, r *http.Request, req *slotRequest) (release func(), ok bool) {
	d := slotDecoders.Get().(*slotDecoder)
	release = func() {
		if d.body.Cap() > maxPooledBody {
			d.body = bytes.Buffer{}
		}
		slotDecoders.Put(d)
	}
	d.body.Reset()
	_, err := d.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	body := d.body.Bytes()
	if d.parse(body, req) {
		return release, true
	}
	*req = slotRequest{}
	dec := json.NewDecoder(jsonscan.Replay(body, err))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		release()
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return nil, false
	}
	return release, true
}

// Key numbers of the fast path's at-most-once check.
const (
	keySlot = iota
	keyOpPrice
	keyAttach
	keyAccessDelay
	keyIncludeAllocation
)

// parse decodes body into req on the fast path and reports whether it was
// canonical; on false req holds a partial decode.
func (d *slotDecoder) parse(body []byte, req *slotRequest) bool {
	p := jsonscan.New(body)
	return p.Object(func(key []byte) (n int, ok bool) {
		switch string(key) {
		case "slot":
			if d.slot, ok = p.Int(); ok {
				req.Slot = &d.slot
			}
			return keySlot, ok
		case "opPrice":
			d.opPrice, ok = jsonscan.Array(&p, d.opPrice, p.Float)
			req.OpPrice = d.opPrice
			return keyOpPrice, ok
		case "attach":
			d.attach, ok = jsonscan.Array(&p, d.attach, p.Int)
			req.Attach = d.attach
			return keyAttach, ok
		case "accessDelay":
			d.accessDelay, ok = jsonscan.Array(&p, d.accessDelay, p.Float)
			req.AccessDelay = d.accessDelay
			return keyAccessDelay, ok
		case "includeAllocation":
			req.IncludeAllocation, ok = p.Bool()
			return keyIncludeAllocation, ok
		}
		return 0, false
	}) && p.End()
}
