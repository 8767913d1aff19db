package model

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"edgealloc/internal/jsonscan"
)

// This file provides JSON persistence for instances and schedules, so
// that scenarios generated once (e.g. by cmd/tracegen + scenario
// builders) can be archived, diffed, and replayed across runs and
// machines — the reproducibility workflow the evaluation section relies
// on.

// WriteInstance encodes the instance as indented JSON.
func WriteInstance(w io.Writer, in *Instance) error {
	if err := in.Validate(); err != nil {
		return fmt.Errorf("model: refusing to write invalid instance: %w", err)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(in); err != nil {
		return fmt.Errorf("model: encoding instance: %w", err)
	}
	return nil
}

// ReadInstance decodes and validates an instance.
func ReadInstance(r io.Reader) (*Instance, error) {
	var in Instance
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("model: decoding instance: %w", err)
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return &in, nil
}

// ParseInstance decodes the instance object at p on the fast path and
// reports whether it was canonical: keys spelled exactly as encoding/json
// writes Instance's and Alloc's fields (no escapes, no other case), each at
// most once; integers in the int fields; null only where encoding/json
// decodes it to nil — a slice, a row of one, or Init. An accepted object
// decodes to the value encoding/json builds from it, float bits and nil
// versus empty slices included (FuzzInstanceDecode); what follows it is the
// caller's to read. It does not validate.
func ParseInstance(p *jsonscan.Scanner) (*Instance, bool) {
	in := new(Instance)
	floats := func() ([]float64, bool) {
		return nullable(p, func() ([]float64, bool) { return jsonscan.Array(p, nil, p.Float) })
	}
	grid := func() ([][]float64, bool) {
		return nullable(p, func() ([][]float64, bool) { return jsonscan.Array(p, nil, floats) })
	}
	field := func(key []byte) (int, bool) {
		var ok bool
		switch string(key) {
		case "I":
			in.I, ok = p.Int()
			return 0, ok
		case "J":
			in.J, ok = p.Int()
			return 1, ok
		case "T":
			in.T, ok = p.Int()
			return 2, ok
		case "Capacity":
			in.Capacity, ok = floats()
			return 3, ok
		case "InterDelay":
			in.InterDelay, ok = grid()
			return 4, ok
		case "Workload":
			in.Workload, ok = floats()
			return 5, ok
		case "OpPrice":
			in.OpPrice, ok = grid()
			return 6, ok
		case "ReconfPrice":
			in.ReconfPrice, ok = floats()
			return 7, ok
		case "MigOutPrice":
			in.MigOutPrice, ok = floats()
			return 8, ok
		case "MigInPrice":
			in.MigInPrice, ok = floats()
			return 9, ok
		case "Attach":
			in.Attach, ok = nullable(p, func() ([][]int, bool) {
				return jsonscan.Array(p, nil, func() ([]int, bool) {
					return nullable(p, func() ([]int, bool) { return jsonscan.Array(p, nil, p.Int) })
				})
			})
			return 10, ok
		case "AccessDelay":
			in.AccessDelay, ok = grid()
			return 11, ok
		case "WOp":
			in.WOp, ok = p.Float()
			return 12, ok
		case "WSq":
			in.WSq, ok = p.Float()
			return 13, ok
		case "WRc":
			in.WRc, ok = p.Float()
			return 14, ok
		case "WMg":
			in.WMg, ok = p.Float()
			return 15, ok
		case "Init":
			if p.Null() {
				return 16, true
			}
			in.Init = new(Alloc)
			return 16, parseAlloc(p, in.Init)
		}
		return 0, false
	}
	return in, p.Object(field)
}

// parseAlloc is ParseInstance for an Alloc object. Its grid is sized from
// I and J when they come first and the input left can hold that many
// numbers, two bytes each with their separators.
func parseAlloc(p *jsonscan.Scanner, a *Alloc) bool {
	return p.Object(func(key []byte) (int, bool) {
		var ok bool
		switch string(key) {
		case "I":
			a.I, ok = p.Int()
			return 0, ok
		case "J":
			a.J, ok = p.Int()
			return 1, ok
		case "X":
			a.X, ok = nullable(p, func() ([]float64, bool) {
				var x []float64
				if a.I > 0 && a.J > 0 && a.J <= len(p.Rest())/2/a.I {
					x = make([]float64, 0, a.I*a.J)
				}
				return jsonscan.Array(p, x, p.Float)
			})
			return 2, ok
		}
		return 0, false
	})
}

// nullable reads null as a nil slice, and anything else with read.
func nullable[T any](p *jsonscan.Scanner, read func() ([]T, bool)) ([]T, bool) {
	if p.Null() {
		return nil, true
	}
	return read()
}

// scheduleDTO is the wire form of a schedule: shape plus slot matrices.
// The codec below writes and reads it without reflection, as the bytes
// encoding/json writes for it and the values encoding/json decodes from
// them (FuzzScheduleDecode, TestWriteScheduleMatchesEncoder).
type scheduleDTO struct {
	I, J  int
	Slots [][]float64
}

// WriteSchedule encodes a schedule as JSON.
func WriteSchedule(w io.Writer, s Schedule) error {
	if len(s) == 0 {
		return fmt.Errorf("model: refusing to write empty schedule")
	}
	for t, x := range s {
		if err := sameShape(t, x, s[0].I, s[0].J); err != nil {
			return err
		}
	}
	return WriteScheduleWalk(w, s.Walk)
}

// sameShape fails unless slot t's decision x is an nI×nJ grid.
func sameShape(t int, x Alloc, nI, nJ int) error {
	if x.I != nI || x.J != nJ || len(x.X) != nI*nJ {
		return fmt.Errorf("model: slot %d has shape %dx%d, want %dx%d", t, x.I, x.J, nI, nJ)
	}
	return nil
}

// WriteScheduleWalk is WriteSchedule over the slots walk yields, every
// one of the first one's shape, each written through a buffer as it is
// yielded. On an error — a misshapen slot, a NaN or an infinity, or the
// writer's — a prefix of the document may have been written.
func WriteScheduleWalk(w io.Writer, walk Walk) error {
	bw := bufio.NewWriterSize(w, 32<<10)
	var err error
	var nI, nJ, n int
	walk(func(t int, x Alloc) bool {
		if n == 0 {
			nI, nJ = x.I, x.J
			fmt.Fprintf(bw, `{"I":%d,"J":%d,"Slots":[`, nI, nJ)
		} else {
			bw.WriteByte(',')
		}
		if err = sameShape(t, x, nI, nJ); err == nil {
			err = writeFloats(bw, x.X)
		}
		n++
		return err == nil
	})
	if err == nil && n == 0 {
		err = fmt.Errorf("model: refusing to write empty schedule")
	}
	if err != nil {
		return err
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

// writeFloats writes v as encoding/json renders a []float64: null for a
// nil slice, each element as appendFloat renders it. bw's errors stick, so
// the element writes report any earlier one.
func writeFloats(bw *bufio.Writer, v []float64) error {
	if v == nil {
		_, err := bw.WriteString("null")
		return err
	}
	num := make([]byte, 0, 32)
	bw.WriteByte('[')
	for k, f := range v {
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return fmt.Errorf("model: encoding schedule: json: unsupported value: %s",
				strconv.FormatFloat(f, 'g', -1, 64))
		}
		if k > 0 {
			bw.WriteByte(',')
		}
		num = appendFloat(num[:0], f)
		if _, err := bw.Write(num); err != nil {
			return err
		}
	}
	return bw.WriteByte(']')
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// representation that parses back to f, in 'f' form unless |f| is below
// 1e-6 or at least 1e21, with e-07 shortened to e-7.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// ReadSchedule decodes a schedule. A reader that reports its Len — an
// in-memory body such as a bytes.Reader — is read whole into a buffer of
// that size and parsed straight into grids on a fast path that accepts
// the document WriteSchedule writes: the keys I, J and Slots spelled so
// and in that order, every slot of I·J numbers, whitespace between tokens
// and nothing after. Any other input — another key order or case, an
// unknown or repeated key, a null, a misshapen slot, trailing bytes — goes
// to encoding/json over the same bytes and the error that ended the read,
// so it decodes, or fails, as it always did. Any other reader goes to
// encoding/json directly, which stops reading at the end of the document.
func ReadSchedule(r io.Reader) (Schedule, error) {
	var dto scheduleDTO
	l, sized := r.(interface{ Len() int })
	if !sized {
		if err := decodeScheduleJSON(r, &dto); err != nil {
			return nil, err
		}
		return dto.schedule()
	}
	var buf bytes.Buffer
	buf.Grow(l.Len() + bytes.MinRead)
	_, rerr := buf.ReadFrom(r)
	body := buf.Bytes()
	dto, ok := parseSchedule(body)
	if !ok {
		dto = scheduleDTO{}
		if err := decodeScheduleJSON(jsonscan.Replay(body, rerr), &dto); err != nil {
			return nil, err
		}
	}
	return dto.schedule()
}

// decodeScheduleJSON is the reference decoder, encoding/json's.
func decodeScheduleJSON(r io.Reader, dto *scheduleDTO) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dto); err != nil {
		return fmt.Errorf("model: decoding schedule: %w", err)
	}
	return nil
}

// schedule checks a decoded document's shape and returns its slots.
func (dto *scheduleDTO) schedule() (Schedule, error) {
	if dto.I <= 0 || dto.J <= 0 {
		return nil, fmt.Errorf("model: schedule shape %dx%d invalid", dto.I, dto.J)
	}
	s := make(Schedule, 0, len(dto.Slots))
	for t, xs := range dto.Slots {
		if len(xs) != dto.I*dto.J {
			return nil, fmt.Errorf("model: slot %d has %d entries, want %d",
				t, len(xs), dto.I*dto.J)
		}
		s = append(s, Alloc{I: dto.I, J: dto.J, X: xs})
	}
	if len(s) == 0 {
		return nil, fmt.Errorf("model: schedule has no slots")
	}
	return s, nil
}

// parseSchedule decodes body on the fast path and reports whether it was
// canonical.
func parseSchedule(body []byte) (dto scheduleDTO, ok bool) {
	p := jsonscan.New(body)
	key := func(name string) bool {
		k, ok := p.Key()
		return ok && string(k) == name && p.Byte(':')
	}
	if !p.Byte('{') || !key("I") {
		return dto, false
	}
	if dto.I, ok = p.Int(); !ok || !p.Byte(',') || !key("J") {
		return dto, false
	}
	if dto.J, ok = p.Int(); !ok || !p.Byte(',') || !key("Slots") {
		return dto, false
	}
	return dto, parseSlots(&p, &dto, len(body)) && p.Byte('}') && p.End()
}

// parseSlots reads the Slots array of an I×J document of size bytes, each
// slot into a grid of I·J entries. A number takes at least two bytes with
// its separator, so a shape the document cannot hold one slot of is not
// allocated for.
func parseSlots(p *jsonscan.Scanner, dto *scheduleDTO, size int) bool {
	if dto.I <= 0 || dto.J <= 0 || dto.J > size/2/dto.I {
		return false
	}
	n := dto.I * dto.J
	var ok bool
	dto.Slots, ok = jsonscan.Array(p, nil, func() ([]float64, bool) {
		x, ok := jsonscan.Array(p, make([]float64, 0, n), p.Float)
		return x, ok && len(x) == n
	})
	return ok
}
