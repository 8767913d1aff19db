package model

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"
)

// referenceBytes is what WriteSchedule wrote when it handed the document
// to encoding/json.
func referenceBytes(s Schedule) ([]byte, error) {
	dto := scheduleDTO{I: s[0].I, J: s[0].J}
	for _, x := range s {
		dto.Slots = append(dto.Slots, x.X)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(dto); err != nil {
		return nil, fmt.Errorf("model: encoding schedule: %w", err)
	}
	return buf.Bytes(), nil
}

// adversarialFloats are the values at encoding/json's format switches
// and its exponent clean-up, signed zeros, the subnormal and normal
// extremes, and values whose shortest form is long.
var adversarialFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 2.0 / 3,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6,
	1e-7, 9.999999999999999e-7, 1.5e-7, 1e-9, 1e-10, 1e-100, 1.2345678901234567e-300,
	1e20, math.Nextafter(1e21, 0), 1e21, -1e21, 1e22, 1.7976931348623157e308,
	5e-324, -5e-324, 2.2250738585072014e-308, math.SmallestNonzeroFloat64 * 3,
	123456789012345680000, 0.000001234567890123456, 12345.678901234567, 4503599627370497,
}

// TestWriteScheduleMatchesEncoder pins WriteSchedule's bytes to
// encoding/json's: the adversarial values, random finite bit patterns and
// random decisions, over documents larger than the writer's buffer; a nil
// grid of an empty shape is null; and a NaN or an infinity fails with
// encoding/json's message. Every document it writes reads back on the fast
// path, bit for bit.
func TestWriteScheduleMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	random := func(n int, gen func() float64) []float64 {
		v := make([]float64, n)
		for k := range v {
			v[k] = gen()
		}
		return v
	}
	bitsGen := func() float64 {
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
	decision := func() float64 {
		if rng.Intn(3) == 0 {
			return 0
		}
		return rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(30)-15))
	}
	cases := map[string]Schedule{
		"adversarial": {{I: 1, J: len(adversarialFloats), X: adversarialFloats}},
		"negated": {{I: 1, J: len(adversarialFloats), X: random(len(adversarialFloats), func() float64 {
			return -adversarialFloats[rng.Intn(len(adversarialFloats))]
		})}},
		"bits":      {{I: 50, J: 40, X: random(2000, bitsGen)}, {I: 50, J: 40, X: random(2000, bitsGen)}},
		"decisions": {{I: 25, J: 400, X: random(10000, decision)}, {I: 25, J: 400, X: random(10000, decision)}},
		"nil grid":  {{I: 0, J: 3}, {I: 0, J: 3, X: []float64{}}},
	}
	for name, s := range cases {
		want, err := referenceBytes(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got bytes.Buffer
		if err := WriteSchedule(&got, s); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			k := 0
			for k < min(got.Len(), len(want)) && got.Bytes()[k] == want[k] {
				k++
			}
			t.Fatalf("%s: bytes differ from encoding/json's at offset %d: %.40q vs %.40q",
				name, k, got.Bytes()[k:], want[k:])
		}
		if s[0].I == 0 {
			continue
		}
		dto, ok := parseSchedule(want)
		if !ok {
			t.Fatalf("%s: the fast path refuses WriteSchedule's document", name)
		}
		for tt, x := range dto.Slots {
			if msg := floatsDiff(fmt.Sprintf("%s slot %d", name, tt), x, s[tt].X); msg != "" {
				t.Fatal(msg)
			}
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s := Schedule{{I: 1, J: 2, X: []float64{1, bad}}}
		_, want := referenceBytes(s)
		err := WriteSchedule(&bytes.Buffer{}, s)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("WriteSchedule of %v: error %v, want %v", bad, err, want)
		}
	}
}

func floatsDiff(name string, a, b []float64) string {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return fmt.Sprintf("%s: %v vs %v", name, a, b)
	}
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return fmt.Sprintf("%s[%d]: %x vs %x", name, k, math.Float64bits(a[k]), math.Float64bits(b[k]))
		}
	}
	return ""
}

// scheduleDiff describes the first way two ReadSchedule results differ, or
// returns "".
func scheduleDiff(a Schedule, aErr error, b Schedule, bErr error) string {
	if (aErr == nil) != (bErr == nil) || aErr != nil && aErr.Error() != bErr.Error() {
		return fmt.Sprintf("error %v vs %v", aErr, bErr)
	}
	if len(a) != len(b) {
		return fmt.Sprintf("%d slots vs %d", len(a), len(b))
	}
	for t, x := range a {
		if x.I != b[t].I || x.J != b[t].J {
			return fmt.Sprintf("slot %d shape %dx%d vs %dx%d", t, x.I, x.J, b[t].I, b[t].J)
		}
		if msg := floatsDiff(fmt.Sprintf("slot %d", t), x.X, b[t].X); msg != "" {
			return msg
		}
	}
	return ""
}

// FuzzScheduleDecode checks the schedule decoder's fast path against
// encoding/json: whatever parseSchedule accepts, encoding/json with
// DisallowUnknownFields accepts too and decodes to the same document,
// float bits and nil versus empty slices included; and ReadSchedule, fast
// path or fallback, from a reader with a Len or without, returns what the
// reference decoder and the shape check return — the same schedule bit
// for bit, or the same error. The committed seeds cover the canonical
// document and the kinds the fast path hands over.
func FuzzScheduleDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var ref scheduleDTO
		refErr := decodeScheduleJSON(bytes.NewReader(body), &ref)
		if fast, ok := parseSchedule(body); ok {
			if refErr != nil {
				t.Fatalf("fast path accepted %q; encoding/json refuses it: %v", body, refErr)
			}
			if fast.I != ref.I || fast.J != ref.J || (fast.Slots == nil) != (ref.Slots == nil) || len(fast.Slots) != len(ref.Slots) {
				t.Fatalf("fast path and encoding/json decode %q to %dx%d, %d slots and %dx%d, %d slots",
					body, fast.I, fast.J, len(fast.Slots), ref.I, ref.J, len(ref.Slots))
			}
			for tt := range fast.Slots {
				if msg := floatsDiff(fmt.Sprintf("slot %d", tt), fast.Slots[tt], ref.Slots[tt]); msg != "" {
					t.Fatalf("fast path and encoding/json decode %q differently: %s", body, msg)
				}
			}
		}
		want, wantErr := Schedule(nil), refErr
		if refErr == nil {
			want, wantErr = ref.schedule()
		}
		got, err := ReadSchedule(bytes.NewReader(body))
		if msg := scheduleDiff(got, err, want, wantErr); msg != "" {
			t.Fatalf("ReadSchedule(%q) and the reference differ: %s", body, msg)
		}
		got, err = ReadSchedule(iotest.HalfReader(bytes.NewReader(body)))
		if msg := scheduleDiff(got, err, want, wantErr); msg != "" {
			t.Fatalf("ReadSchedule(%q) without a Len and the reference differ: %s", body, msg)
		}
	})
}

// sizedReader is a reader that reports its Len, as an in-memory body does.
type sizedReader struct {
	io.Reader
	n int
}

func (r sizedReader) Len() int { return r.n }

// TestReadScheduleReadError requires a read error that cuts the document
// short to fail the decode, as encoding/json's Decoder fails it, from a
// reader with a Len or without.
func TestReadScheduleReadError(t *testing.T) {
	doc := `{"I":1,"J":2,"Slots":[[1,2]]}`
	for _, sized := range []bool{false, true} {
		var r io.Reader = iotest.TimeoutReader(iotest.OneByteReader(strings.NewReader(doc)))
		if sized {
			r = sizedReader{r, len(doc)}
		}
		if _, err := ReadSchedule(r); err == nil || !strings.Contains(err.Error(), iotest.ErrTimeout.Error()) {
			t.Fatalf("ReadSchedule over a failing reader (Len %v): %v, want the read error", sized, err)
		}
	}
}

// openStream yields its document, then records any further read: a pipe
// or a connection that stays open after it.
type openStream struct {
	doc       io.Reader
	readAfter bool
}

func (s *openStream) Read(p []byte) (int, error) {
	n, err := s.doc.Read(p)
	if err == io.EOF {
		s.readAfter = true
		return 0, errors.New("read past the document")
	}
	return n, err
}

// TestReadScheduleStopsAtDocumentEnd requires a reader without a Len to be
// read no further than the document, so a stream left open does not block.
func TestReadScheduleStopsAtDocumentEnd(t *testing.T) {
	s := &openStream{doc: strings.NewReader(`{"I":1,"J":2,"Slots":[[1,2]]}`)}
	if _, err := ReadSchedule(s); err != nil || s.readAfter {
		t.Fatalf("ReadSchedule over an open stream: %v, read past the document %v", err, s.readAfter)
	}
}
