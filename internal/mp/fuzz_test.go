package mp

import (
	"bytes"
	"testing"
)

// FuzzDecodeRequest: arbitrary bytes never panic the request decoder,
// and every successfully decoded request re-encodes to an equivalent
// message.
func FuzzDecodeRequest(f *testing.F) {
	f.Add(encodeRequest(0, 0, nil))
	f.Add(encodeRequest(42, 9, []resultEntry{{index: 1, data: []byte("abc")}}))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		acpVal, compNanos, entries, err := decodeRequest(data)
		if err != nil {
			return
		}
		for _, e := range entries {
			if len(e.data) > len(data) {
				t.Fatalf("entry larger than input: %d > %d", len(e.data), len(data))
			}
		}
		// Round-trip through the encoder.
		again, cm2, entries2, err := decodeRequest(encodeRequest(acpVal, compNanos, entries))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again != acpVal || cm2 != compNanos || len(entries2) != len(entries) {
			t.Fatalf("round trip changed shape")
		}
		for i := range entries {
			if entries2[i].index != entries[i].index || !bytes.Equal(entries2[i].data, entries[i].data) {
				t.Fatalf("round trip changed entry %d", i)
			}
		}
	})
}

// FuzzDecodeAssign: arbitrary bytes never panic the assignment decoder.
func FuzzDecodeAssign(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := decodeAssign(data)
		if err != nil {
			return
		}
		got, err := decodeAssign(encodeAssign(a))
		if err != nil || got != a {
			t.Fatalf("round trip: %v %+v vs %+v", err, got, a)
		}
	})
}
