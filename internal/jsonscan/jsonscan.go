// Package jsonscan is the scanner behind the decoders' fast paths: the
// slot request and the create body of the serving layer, the snapshot
// header, and the instance and schedule documents of the model layer are
// read whole and parsed by hand when they are in the canonical form their
// clients write, and handed to encoding/json otherwise. The scanner reads
// numbers as encoding/json does — the JSON grammar, then the same strconv
// calls — so a value it parses is the value encoding/json would decode, bit
// for bit.
package jsonscan

import (
	"bytes"
	"io"
	"strconv"
)

// Replay returns a reader of body, the input a fast path was given,
// followed by err, the error that ended reading it (none if nil), so the
// encoding/json decoder it falls back to sees what reading the input
// directly would have shown it.
func Replay(body []byte, err error) io.Reader {
	if err == nil {
		return bytes.NewReader(body)
	}
	return io.MultiReader(bytes.NewReader(body), errReader{err})
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// Scanner walks a JSON text. Its methods skip the whitespace in front of
// what they read.
type Scanner struct {
	b []byte
	i int
}

// New returns a scanner at the start of b.
func New(b []byte) Scanner { return Scanner{b: b} }

func (p *Scanner) skip() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// Byte consumes c if it comes next.
func (p *Scanner) Byte(c byte) bool {
	p.skip()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// Pos skips whitespace and returns the offset of the next byte.
func (p *Scanner) Pos() int {
	p.skip()
	return p.i
}

// Since is the input from offset start up to the next unread byte.
func (p *Scanner) Since(start int) []byte { return p.b[start:p.i] }

// Rest is the input from the next unread byte on.
func (p *Scanner) Rest() []byte { return p.b[p.i:] }

// End reports whether only whitespace is left.
func (p *Scanner) End() bool {
	p.skip()
	return p.i == len(p.b)
}

// Key reads a string of ASCII letters and digits, the only keys the fast
// paths know.
func (p *Scanner) Key() ([]byte, bool) {
	if !p.Byte('"') {
		return nil, false
	}
	start := p.i
	for p.i < len(p.b) {
		c := p.b[p.i]
		switch {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
			p.i++
		default:
			return nil, false
		}
	}
	return nil, false
}

// Str reads a string of printable ASCII without escapes, which
// encoding/json decodes to the same bytes.
func (p *Scanner) Str() (string, bool) {
	if !p.Byte('"') {
		return "", false
	}
	start := p.i
	for p.i < len(p.b) {
		c := p.b[p.i]
		switch {
		case c == '"':
			p.i++
			return string(p.b[start : p.i-1]), true
		case c < 0x20 || c > 0x7e || c == '\\':
			return "", false
		}
		p.i++
	}
	return "", false
}

// Object reads a JSON object. For each key, field reads the value and
// returns the key's number, below 64, or false for a key it does not know
// or a value it could not read; a number seen twice fails the object too.
func (p *Scanner) Object(field func(key []byte) (n int, ok bool)) bool {
	if !p.Byte('{') {
		return false
	}
	if p.Byte('}') {
		return true
	}
	var seen uint64
	for {
		key, ok := p.Key()
		if !ok || !p.Byte(':') {
			return false
		}
		n, ok := field(key)
		if !ok || seen&(1<<n) != 0 {
			return false
		}
		seen |= 1 << n
		if p.Byte('}') {
			return true
		}
		if !p.Byte(',') {
			return false
		}
	}
}

// Skip consumes a scalar — a number, true, false, null or a string Str
// takes — or an object of scalars under keys Key takes, the value a fast
// path leaves to encoding/json, and reports whether it could.
func (p *Scanner) Skip() bool {
	if !p.Byte('{') {
		return p.scalar()
	}
	if p.Byte('}') {
		return true
	}
	for {
		if _, ok := p.Key(); !ok || !p.Byte(':') || !p.scalar() {
			return false
		}
		if p.Byte('}') {
			return true
		}
		if !p.Byte(',') {
			return false
		}
	}
}

// scalar consumes a number, true, false, null or a string Str takes.
func (p *Scanner) scalar() (ok bool) {
	p.skip()
	if p.i == len(p.b) {
		return false
	}
	switch p.b[p.i] {
	case '"':
		_, ok = p.Str()
	case 't', 'f':
		_, ok = p.Bool()
	case 'n':
		ok = p.Null()
	default:
		_, _, ok = p.number()
	}
	return ok
}

// number reads a token of the JSON number grammar
// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? and reports whether it
// has neither a fraction nor an exponent.
func (p *Scanner) number() (tok []byte, integer, ok bool) {
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
func (p *Scanner) accept(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// digits consumes a run of decimal digits and returns its length.
func (p *Scanner) digits() int {
	start := p.i
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i - start
}

// Float reads a number as encoding/json does into a float64. The bare
// token 0, the commonest number of a sparse grid, is +0 without a strconv
// call.
func (p *Scanner) Float() (float64, bool) {
	tok, _, ok := p.number()
	if !ok {
		return 0, false
	}
	if len(tok) == 1 && tok[0] == '0' {
		return 0, true
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	return v, err == nil
}

// Int reads a number as encoding/json does into an int: digits only, in
// range.
func (p *Scanner) Int() (int, bool) {
	tok, integer, ok := p.number()
	if !ok || !integer {
		return 0, false
	}
	v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	return int(v), err == nil
}

// literal consumes lit if it comes next.
func (p *Scanner) literal(lit string) bool {
	p.skip()
	if len(p.b)-p.i >= len(lit) && string(p.b[p.i:p.i+len(lit)]) == lit {
		p.i += len(lit)
		return true
	}
	return false
}

// Null consumes null if it comes next.
func (p *Scanner) Null() bool { return p.literal("null") }

// Bool reads true or false.
func (p *Scanner) Bool() (bool, bool) {
	if p.literal("true") {
		return true, true
	}
	return false, p.literal("false")
}

// Array reads a JSON array of elem's values into dst[:0]; [] gives an
// empty non-nil slice, as encoding/json does.
func Array[T any](p *Scanner, dst []T, elem func() (T, bool)) ([]T, bool) {
	dst = dst[:0]
	if dst == nil {
		dst = []T{}
	}
	if !p.Byte('[') {
		return dst, false
	}
	if p.Byte(']') {
		return dst, true
	}
	for {
		v, ok := elem()
		if !ok {
			return dst, false
		}
		dst = append(dst, v)
		if p.Byte(']') {
			return dst, true
		}
		if !p.Byte(',') {
			return dst, false
		}
	}
}
