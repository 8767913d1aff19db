package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"sync"

	"edgealloc/internal/core"
	"edgealloc/internal/jsonscan"
	"edgealloc/internal/model"
)

// A session snapshot is a base plus a log: one JSON header line written
// once, then one framed record per committed slot, appended as the slots
// commit. The file in SnapshotDir, the body of POST …/snapshot and the
// body of POST /v1/sessions/restore are the same bytes (DESIGN.md §7g is
// the format spec):
//
//	snapshot := header '\n' record*
//	header   := JSON {version, id, horizon, options, instance}
//	record   := len:u32 payload[len] crc:u32        crc = CRC-32C(payload)
//	payload  := opPrice:f64[I] attach:u32[J] accessDelay:f64[J]
//	            nnz:u32 (index:u32 bits:u64)[nnz] duals:f64[J+I] meta
//	meta     := JSON {cost, diag, summary?}, to the end of the payload
//
// Integers and float64 bit patterns are little-endian and fixed-width. The
// duals are the slot's [θ (J) | ν (I)] record (core.WarmState.Duals).

// snapshotVersion is the header's format version; restore rejects others.
const snapshotVersion = 3

var (
	le         = binary.LittleEndian
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// snapHeader is everything about a session that does not change as slots
// commit. Instance is the create request's instance JSON, carried without
// being decoded and re-encoded, so restore builds the instance through the
// same decode, completeInstance and Validate as create.
type snapHeader struct {
	Version  int             `json:"version"`
	ID       string          `json:"id"`
	Horizon  int             `json:"horizon,omitempty"`
	Options  solverOptions   `json:"options"`
	Instance json.RawMessage `json:"instance"`
}

// encodeHeader renders the header line, newline included.
func encodeHeader(h snapHeader) ([]byte, error) {
	raw, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("encoding snapshot header: %w", err)
	}
	return append(raw, '\n'), nil
}

// slotMeta is a committed slot's bookkeeping: its unweighted cost
// components, its solver diagnostics (Diag.Slot numbers the record) and,
// on the final slot, the conformance summary.
type slotMeta struct {
	Cost    model.Breakdown `json:"cost"`
	Diag    core.StepDiag   `json:"diag"`
	Summary *conformSummary `json:"summary,omitempty"`
}

// slotRecord is one committed slot: the inputs revealed at the slot, the
// decision, the slot's multipliers [θ|ν] (after a commit both the slot's
// dual record and the next slot's warm duals) and the bookkeeping. The
// encoder reads records that alias live session state, the decision as
// its dense grid x; the decoder fills owned slices, the decision as the
// stored entries nz it parsed.
type slotRecord struct {
	opPrice     []float64
	attach      []int
	accessDelay []float64
	x           []float64    // dense row-major I×J
	nz          []core.Entry // the stored entries, when x is nil
	duals       []float64    // [θ|ν], length J+I
	slotMeta
}

func appendF64s(b []byte, v []float64) []byte {
	for _, f := range v {
		b = le.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

// metaEncoder renders a record's bookkeeping as json.Marshal does, into a
// buffer it keeps, so encoding a record allocates no copy of it. meta is
// the value encoded, copied in so that no record escapes to the heap.
type metaEncoder struct {
	meta slotMeta
	buf  bytes.Buffer
	enc  *json.Encoder
}

var metaEncoders = sync.Pool{New: func() any {
	m := new(metaEncoder)
	m.enc = json.NewEncoder(&m.buf)
	return m
}}

// appendRecord frames and appends one record. The decision is stored as
// (index, float64 bits) pairs over the entries whose bit pattern is
// non-zero, so −0.0 and subnormals survive and +0.0 costs nothing; the pair
// count is patched in once the pairs are written. A record without a dense
// grid writes its stored entries as they are. It fails only on a
// non-finite cost or diagnostic, which JSON cannot carry.
func appendRecord(b []byte, r *slotRecord) ([]byte, error) {
	m := metaEncoders.Get().(*metaEncoder)
	defer metaEncoders.Put(m)
	m.buf.Reset()
	m.meta = r.slotMeta
	err := m.enc.Encode(&m.meta)
	m.meta = slotMeta{}
	if err != nil {
		return b, fmt.Errorf("encoding slot %d: %w", r.Diag.Slot, err)
	}
	meta := bytes.TrimSuffix(m.buf.Bytes(), []byte{'\n'}) // Encode ends a value with one

	words := len(r.opPrice) + len(r.accessDelay) + len(r.duals)
	b = slices.Grow(b, 4+8*words+4*len(r.attach)+4+len(meta)+4)
	start := len(b) + 4
	b = le.AppendUint32(b, 0) // payload length, patched below
	b = appendF64s(b, r.opPrice)
	for _, l := range r.attach {
		b = le.AppendUint32(b, uint32(l))
	}
	b = appendF64s(b, r.accessDelay)
	count, nnz := len(b), len(r.nz)
	b = le.AppendUint32(b, 0)
	for _, e := range r.nz {
		b = le.AppendUint64(le.AppendUint32(b, uint32(e.Index)), math.Float64bits(e.Value))
	}
	for k, v := range r.x {
		if bits := math.Float64bits(v); bits != 0 {
			b = le.AppendUint64(le.AppendUint32(b, uint32(k)), bits)
			nnz++
		}
	}
	le.PutUint32(b[count:], uint32(nnz))
	b = append(appendF64s(b, r.duals), meta...)
	le.PutUint32(b[start-4:], uint32(len(b)-start))
	return le.AppendUint32(b, crc32.Checksum(b[start:], castagnoli)), nil
}

// takeF64s decodes n float64s off the front of p, which the caller has
// checked is long enough.
func takeF64s(p []byte, n int) ([]float64, []byte) {
	out := make([]float64, n)
	for k := range out {
		out[k] = math.Float64frombits(le.Uint64(p[8*k:]))
	}
	return out, p[8*n:]
}

// decodeRecord parses the payload of record k for an I×J instance, the
// decision as the stored entries it lists. It accepts exactly what
// appendRecord writes — ascending decision indices, no stored +0.0,
// bookkeeping in encoding/json's own rendering — so an accepted record
// re-encodes to the same bytes. Value ranges (finite, nonnegative, attach
// within [0, I)) are the restore's to check.
func decodeRecord(p []byte, nI, nJ, k int) (*slotRecord, error) {
	rec := &slotRecord{attach: make([]int, nJ)}
	if len(p) < 8*nI+12*nJ+4 {
		return nil, errors.New("truncated inputs")
	}
	rec.opPrice, p = takeF64s(p, nI)
	for j := range rec.attach {
		rec.attach[j] = int(le.Uint32(p[4*j:]))
	}
	rec.accessDelay, p = takeF64s(p[4*nJ:], nJ)
	nnz := int(le.Uint32(p))
	if p = p[4:]; nnz > nI*nJ || len(p) < 12*nnz+8*(nJ+nI) {
		return nil, errors.New("truncated decision or duals")
	}
	rec.nz = make([]core.Entry, nnz)
	prev := -1
	for e := range rec.nz {
		idx, bits := int(le.Uint32(p)), le.Uint64(p[4:])
		if idx <= prev || idx >= nI*nJ || bits == 0 {
			return nil, fmt.Errorf("decision entry %d after %d not canonical", idx, prev)
		}
		rec.nz[e], prev, p = core.Entry{Index: idx, Value: math.Float64frombits(bits)}, idx, p[12:]
	}
	duals, meta := takeF64s(p, nJ+nI)
	rec.duals = duals

	dec := json.NewDecoder(bytes.NewReader(meta))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec.slotMeta); err != nil {
		return nil, fmt.Errorf("bookkeeping: %w", err)
	}
	if canon, err := json.Marshal(&rec.slotMeta); err != nil || !bytes.Equal(canon, meta) {
		return nil, errors.New("bookkeeping not canonical")
	}
	if rec.Diag.Slot != k {
		return nil, fmt.Errorf("carries slot %d", rec.Diag.Slot)
	}
	return rec, nil
}

// nextFrame splits the first record frame off b. ok is false when the
// length prefix, the payload or the checksum is short or wrong — or the
// payload empty, so a zero-filled tail is a torn write, not a record.
func nextFrame(b []byte) (payload []byte, size int, ok bool) {
	if len(b) < 8 {
		return nil, 0, false
	}
	n := int(le.Uint32(b))
	if n == 0 || n > len(b)-8 {
		return nil, 0, false
	}
	payload = b[4 : 4+n]
	return payload, n + 8, crc32.Checksum(payload, castagnoli) == le.Uint32(b[4+n:])
}

// snapDoc is a decoded snapshot: the header (parsed, and as the exact
// bytes it arrived in), the instance built from it, and the records.
type snapDoc struct {
	header    snapHeader
	raw       []byte // header line, newline included
	inst      *model.Instance
	streaming bool
	records   []*slotRecord
	// torn reports that a file's bytes after the last complete record
	// were dropped.
	torn bool
}

// decodeSnapshot parses a snapshot. A request body must be complete: any
// record that fails its length or checksum is an error. A file may end in
// a torn append — the write the process died in — so there the first such
// record and everything after it are dropped and the snapshot stands at
// the last complete slot. A record that passes its checksum but does not
// parse is corruption, not a torn write, and fails both.
func decodeSnapshot(doc []byte, file bool) (*snapDoc, error) {
	d := &snapDoc{}
	end, err := d.readHeader(doc)
	if err != nil {
		return nil, err
	}
	d.raw = doc[:end+1]
	if err := validSessionID(d.header.ID); err != nil {
		return nil, err
	}
	if err := d.header.Options.coreOptions().Validate(); err != nil {
		return nil, err
	}
	if len(d.header.Instance) == 0 {
		return nil, errors.New("snapshot missing instance")
	}
	if d.inst == nil {
		d.inst, err = decodeInstance(d.header.Instance)
	}
	if err == nil {
		d.streaming, err = completeInstance(d.inst, d.header.Horizon)
	}
	if err != nil {
		return nil, fmt.Errorf("snapshot instance: %w", err)
	}
	for rest := doc[end+1:]; len(rest) > 0; {
		k := len(d.records)
		payload, size, ok := nextFrame(rest)
		if !ok && file {
			d.torn = true
			break
		}
		if !ok || k >= d.inst.T {
			return nil, fmt.Errorf("record %d: bad length or checksum, or past the horizon", k)
		}
		rec, err := decodeRecord(payload, d.inst.I, d.inst.J, k)
		if err == nil && rec.Summary != nil && k != d.inst.T-1 {
			err = errors.New("conformance summary before the final slot")
		}
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", k, err)
		}
		d.records = append(d.records, rec)
		rest = rest[size:]
	}
	return d, nil
}

// readHeader decodes the header line doc starts with into d.header and
// returns the offset of the newline that ends it. A header of this version
// that parseEnvelope takes and that a newline follows at once is read in
// one pass, its instance into d.inst; any other goes to decodeHeaderJSON
// and leaves d.inst nil.
func (d *snapDoc) readHeader(doc []byte) (end int, err error) {
	p := jsonscan.New(doc)
	env, ok := parseEnvelope(&p)
	// Rest, unlike Pos, skips no whitespace: end is just past the '}'.
	if end = len(doc) - len(p.Rest()); ok && env.Version == snapshotVersion && end < len(doc) && doc[end] == '\n' {
		d.header, d.inst = env.snapHeader, env.inst
		return end, nil
	}
	return decodeHeaderJSON(doc, &d.header)
}

// decodeHeaderJSON decodes the header line doc starts with into h with
// encoding/json, the path of any header readHeader does not take, and
// returns the offset of the newline that ends it.
func decodeHeaderJSON(doc []byte, h *snapHeader) (int, error) {
	dec := json.NewDecoder(bytes.NewReader(doc))
	// An option this binary does not have must fail the restore, not be
	// dropped and the session resumed on another tier.
	dec.DisallowUnknownFields()
	err := dec.Decode(h)
	// Another version's header is refused as that, not for the first key
	// this version lacks: encoding/json fills the known fields regardless.
	if v := h.Version; v != snapshotVersion && (err == nil || v != 0) {
		return 0, fmt.Errorf("snapshot version %d, want %d", v, snapshotVersion)
	}
	if err != nil {
		return 0, fmt.Errorf("decoding snapshot header: %w", err)
	}
	end := int(dec.InputOffset())
	if end >= len(doc) || doc[end] != '\n' {
		return 0, errors.New("snapshot header not terminated by a newline")
	}
	return end, nil
}

// warmState assembles the algorithm state the records carry: each
// decision is the stored entries its record parsed, and each dual row the
// record's own. Rows alias the records; RestoreState copies what it keeps.
func (d *snapDoc) warmState() *core.WarmState {
	n := len(d.records)
	st := &core.WarmState{Slot: n, Schedule: make([][]core.Entry, n), Duals: make([][]float64, n)}
	for t, rec := range d.records {
		st.Schedule[t], st.Duals[t] = rec.nz, rec.duals
	}
	return st
}
