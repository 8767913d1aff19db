package model

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"edgealloc/internal/jsonscan"
)

// instanceDiff describes how two decoded instances differ, float bits and
// nil versus empty slices included, or returns "". reflect.DeepEqual alone
// holds −0 equal to +0; json.Marshal's bytes tell them apart.
func instanceDiff(got, want *Instance) string {
	gb, gerr := json.Marshal(got)
	wb, werr := json.Marshal(want)
	if !reflect.DeepEqual(got, want) || gerr != nil || werr != nil || !bytes.Equal(gb, wb) {
		return fmt.Sprintf("got %s (%v)\nwant %s (%v)", gb, gerr, wb, werr)
	}
	return ""
}

// errText is err's message, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzInstanceDecode holds the instance codec to encoding/json. Whatever
// ParseInstance accepts, encoding/json with DisallowUnknownFields accepts
// too and decodes to the identical instance, float bits and nil versus
// empty slices included, with the same Validate verdict. Whatever
// ReadInstance accepts must re-encode (Validate admits no value
// json.Marshal rejects, NaN/Inf included) and survive a decode round-trip
// unchanged. Seed corpus files under testdata/fuzz include real encoded
// instances — toy, generated, and Rome-derived — alongside adversarial
// fragments.
func FuzzInstanceDecode(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteInstance(&buf, ToyExampleA()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	compact, err := json.Marshal(ToyExampleB())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(compact)
	f.Add(bytes.Replace(compact, []byte(`"WOp":1`), []byte(`"WOp":0.5`), 1))
	f.Add(bytes.Replace(compact, []byte(`"WOp":1`), []byte(`"WOp":-0`), 1))
	f.Add(bytes.Replace(compact, []byte(`"WOp":1`), []byte(`"wop":1`), 1))
	f.Add(bytes.Replace(compact, []byte(`"WOp":1`), []byte(`"WOp":1,"WOp":2`), 1))
	f.Add(bytes.Replace(compact, []byte(`"I":2`), []byte(`"I":2e0`), 1))
	f.Add([]byte("{}"))
	f.Add([]byte(`{"I":1,"J":1,"T":1}`))
	f.Add([]byte(`{"I":1e999}`))
	f.Add([]byte(`{"I":null}`))
	f.Add([]byte(`{"Workload":[null]}`))
	f.Add([]byte(`{"Workload":[],"Capacity":null,"OpPrice":[null,[]],"Attach":[[0],null]}`))
	f.Add([]byte(`{"Init":null,"WSq":0e5,"WRc":0.0,"WMg":0}`))
	f.Add([]byte(`{"Init":{"I":1,"J":2,"X":[0,0.5]}} trailing`))
	f.Add([]byte(`{"Init":{"X":null,"I":1}}`))
	f.Add([]byte(`{"I":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p := jsonscan.New(data)
		if fast, ok := ParseInstance(&p); ok {
			var ref Instance
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&ref); err != nil {
				t.Fatalf("fast path accepted %q; encoding/json refuses it: %v", data, err)
			}
			if msg := instanceDiff(fast, &ref); msg != "" {
				t.Fatalf("fast path and encoding/json decode %q differently:\n%s", data, msg)
			}
			if got, want := errText(fast.Validate()), errText(ref.Validate()); got != want {
				t.Fatalf("Validate on the fast path's instance: %q; on encoding/json's: %q", got, want)
			}
		}
		in, err := ReadInstance(bytes.NewReader(data))
		if err != nil {
			return // rejected input: nothing more to hold it to
		}
		var out bytes.Buffer
		if err := WriteInstance(&out, in); err != nil {
			t.Fatalf("accepted instance failed to re-encode: %v", err)
		}
		back, err := ReadInstance(&out)
		if err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
		if msg := instanceDiff(back, in); msg != "" {
			t.Fatalf("round-trip changed the instance:\n%s", msg)
		}
	})
}

// TestParseInstanceKnowsEveryField builds, for each field of Instance and
// of its Init allocation, a document setting that field alone under the
// key encoding/json writes for it, and requires the fast path to take it:
// a field added to either struct without a case in ParseInstance fails
// here, not silently on the slow path.
func TestParseInstanceKnowsEveryField(t *testing.T) {
	sample := map[reflect.Type]string{
		reflect.TypeOf(0):             "1",
		reflect.TypeOf(0.0):           "1.5",
		reflect.TypeOf([]float64{}):   "[1.5]",
		reflect.TypeOf([][]float64{}): "[[1.5]]",
		reflect.TypeOf([][]int{}):     "[[1]]",
		reflect.TypeOf((*Alloc)(nil)): `{"I":1,"J":1,"X":[1.5]}`,
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(Instance{}), reflect.TypeOf(Alloc{})} {
		for k := 0; k < typ.NumField(); k++ {
			fld := typ.Field(k)
			key := fld.Name
			if tag := fld.Tag.Get("json"); tag != "" {
				t.Fatalf("%s.%s has json tag %q: teach ParseInstance and this test its key", typ, fld.Name, tag)
			}
			val, ok := sample[fld.Type]
			if !ok {
				t.Fatalf("%s.%s: no sample value for type %s", typ, fld.Name, fld.Type)
			}
			doc := fmt.Sprintf(`{%q:%s}`, key, val)
			if typ == reflect.TypeOf(Alloc{}) {
				doc = fmt.Sprintf(`{"Init":{%q:%s}}`, key, val)
			}
			p := jsonscan.New([]byte(doc))
			if _, ok := ParseInstance(&p); !ok || !p.End() {
				t.Errorf("%s.%s: the fast path does not take %s", typ, fld.Name, doc)
			}
		}
	}
}
