package fault

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzFaultPlanCodec holds the JSON plan codec to two properties:
// ReadPlan never panics on arbitrary bytes, and every plan it accepts
// survives WriteJSON -> ReadPlan unchanged, then re-encodes to the same
// bytes. Committed seeds live under testdata/fuzz/FuzzFaultPlanCodec.
func FuzzFaultPlanCodec(f *testing.F) {
	var buf bytes.Buffer
	if err := fullPlan().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"schema":"hypertrio-faultplan/1","events":[]}`))
	f.Add([]byte(`{"schema":"hypertrio-faultplan/1","retry":{},"events":null}`))
	f.Add([]byte(`{"schema":"hypertrio-faultplan/1","events":[{"at_ns":0.0004,"kind":"flush_all","dur_ns":-0.0004}]}`))
	f.Add([]byte(`{"schema":"hypertrio-faultplan/1","events":[]} {"schema":"x"} garbage`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadPlan(bytes.NewReader(data))
		if err != nil {
			return // rejected input: only panics count
		}
		var first bytes.Buffer
		if err := p.WriteJSON(&first); err != nil {
			t.Fatalf("accepted plan failed to encode: %v", err)
		}
		p2, err := ReadPlan(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("encoding of an accepted plan failed to decode: %v\n%s", err, first.Bytes())
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatalf("round trip changed the plan:\n%+v\n%+v", p, p2)
		}
		var second bytes.Buffer
		if err := p2.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encoding not byte-identical:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
