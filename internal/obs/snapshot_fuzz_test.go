package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzSnapshotRoundTrip checks the snapshot codec's canonical-form
// contract: any bytes that decode at all must re-encode to a fixed
// point — encode(decode(encode(decode(b)))) == encode(decode(b)) —
// so a snapshot written by one run can be diffed byte-for-byte
// against another.
func FuzzSnapshotRoundTrip(f *testing.F) {
	clock := 3.5
	r := NewRegistry(func() float64 { return clock })
	runs := r.Counter("solve.runs")
	for i := 0; i < 7; i++ {
		runs.Inc()
	}
	r.Gauge("chaos.margin.inv-single-leader").Set(-0.25)
	r.Histogram("ack.latency_s", []float64{1, 10, 100}).Observe(42)
	b, err := r.Snapshot().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Add([]byte(`{"at":0,"metrics":[]}`))
	f.Add([]byte(`{"at":-1,"metrics":[{"name":"b","kind":"gauge"},{"name":"a","kind":"counter","count":1}]}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeSnapshot(data)
		if err != nil {
			return // malformed input is allowed to fail decode
		}
		c1, err := s.Encode()
		if err != nil {
			return // e.g. NaN smuggled via struct round-trip is not encodable
		}
		d2, err := decodeSnapshot(c1)
		if err != nil {
			t.Fatalf("canonical bytes failed to decode: %v\n%s", err, c1)
		}
		c2, err := d2.Encode()
		if err != nil {
			t.Fatalf("canonical snapshot failed to re-encode: %v", err)
		}
		if !bytes.Equal(c1, c2) {
			t.Fatalf("canonical form is not a fixed point:\n%s\nvs\n%s", c1, c2)
		}
	})
}

// decodeSnapshot parses a snapshot written by Encode.
func decodeSnapshot(b []byte) (Snapshot, error) {
	var s Snapshot
	err := json.Unmarshal(b, &s)
	return s, err
}
