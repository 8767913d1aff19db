package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
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
	var rd io.Reader = bytes.NewReader(body)
	if err != nil {
		rd = io.MultiReader(rd, errReader{err})
	}
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		release()
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return nil, false
	}
	return release, true
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// Key bits of the fast path's at-most-once check.
const (
	keySlot = 1 << iota
	keyOpPrice
	keyAttach
	keyAccessDelay
	keyIncludeAllocation
)

// parse decodes body into req on the fast path and reports whether it was
// canonical; on false req holds a partial decode.
func (d *slotDecoder) parse(body []byte, req *slotRequest) bool {
	p := scanner{b: body}
	if !p.byte('{') {
		return false
	}
	if p.byte('}') {
		return p.end()
	}
	seen := 0
	for {
		key, ok := p.key()
		if !ok || !p.byte(':') {
			return false
		}
		var bit int
		switch string(key) {
		case "slot":
			bit = keySlot
			if d.slot, ok = p.int(); ok {
				req.Slot = &d.slot
			}
		case "opPrice":
			bit = keyOpPrice
			d.opPrice, ok = array(&p, d.opPrice, p.float)
			req.OpPrice = d.opPrice
		case "attach":
			bit = keyAttach
			d.attach, ok = array(&p, d.attach, p.int)
			req.Attach = d.attach
		case "accessDelay":
			bit = keyAccessDelay
			d.accessDelay, ok = array(&p, d.accessDelay, p.float)
			req.AccessDelay = d.accessDelay
		case "includeAllocation":
			bit = keyIncludeAllocation
			req.IncludeAllocation, ok = p.bool()
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		if p.byte('}') {
			return p.end()
		}
		if !p.byte(',') {
			return false
		}
	}
}

// scanner walks a JSON text for the fast path. Its methods skip the
// whitespace in front of what they read, but for accept and digits, which
// read inside a number.
type scanner struct {
	b []byte
	i int
}

func (p *scanner) skip() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// byte consumes c if it comes next.
func (p *scanner) byte(c byte) bool {
	p.skip()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (p *scanner) end() bool {
	p.skip()
	return p.i == len(p.b)
}

// key reads a string of ASCII letters, the only keys the fast path knows.
func (p *scanner) key() ([]byte, bool) {
	if !p.byte('"') {
		return nil, false
	}
	start := p.i
	for p.i < len(p.b) {
		c := p.b[p.i]
		switch {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z':
			p.i++
		default:
			return nil, false
		}
	}
	return nil, false
}

// number reads a token of the JSON number grammar
// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? and reports whether it
// has neither a fraction nor an exponent.
func (p *scanner) number() (tok []byte, integer, ok bool) {
	p.skip()
	start := p.i
	p.accept('-')
	switch {
	case p.accept('0'):
	case p.digits() == 0:
		return nil, false, false
	}
	integer = true
	if p.accept('.') {
		if p.digits() == 0 {
			return nil, false, false
		}
		integer = false
	}
	if p.accept('e') || p.accept('E') {
		if !p.accept('+') {
			p.accept('-')
		}
		if p.digits() == 0 {
			return nil, false, false
		}
		integer = false
	}
	return p.b[start:p.i], integer, true
}

// accept consumes c if it comes next, without skipping whitespace.
func (p *scanner) accept(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// digits consumes a run of decimal digits and returns its length.
func (p *scanner) digits() int {
	start := p.i
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i - start
}

// float reads a number as encoding/json does into a float64.
func (p *scanner) float() (float64, bool) {
	tok, _, ok := p.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	return v, err == nil
}

// int reads a number as encoding/json does into an int: digits only, in
// range.
func (p *scanner) int() (int, bool) {
	tok, integer, ok := p.number()
	if !ok || !integer {
		return 0, false
	}
	v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	return int(v), err == nil
}

// literal consumes lit if it comes next.
func (p *scanner) literal(lit string) bool {
	p.skip()
	if len(p.b)-p.i >= len(lit) && string(p.b[p.i:p.i+len(lit)]) == lit {
		p.i += len(lit)
		return true
	}
	return false
}

// bool reads true or false.
func (p *scanner) bool() (bool, bool) {
	if p.literal("true") {
		return true, true
	}
	return false, p.literal("false")
}

// array reads a JSON array of elem's values into dst[:0]; [] gives an
// empty non-nil slice, as encoding/json does.
func array[T any](p *scanner, dst []T, elem func() (T, bool)) ([]T, bool) {
	dst = dst[:0]
	if dst == nil {
		dst = []T{}
	}
	if !p.byte('[') {
		return dst, false
	}
	if p.byte(']') {
		return dst, true
	}
	for {
		v, ok := elem()
		if !ok {
			return dst, false
		}
		dst = append(dst, v)
		if p.byte(']') {
			return dst, true
		}
		if !p.byte(',') {
			return dst, false
		}
	}
}
