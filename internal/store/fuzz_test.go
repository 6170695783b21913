package store

import (
	"bytes"
	"testing"
)

// FuzzCacheDecode throws arbitrary bytes at the segment decoder: it must
// never panic and never mis-frame — every emitted record must re-encode to a
// byte range actually present in the input, which is what the CRC framing
// guarantees. Wired into `make fuzz`.
func FuzzCacheDecode(f *testing.F) {
	// Seed with a valid two-record segment plus its truncations and a bit
	// flip, so the corpus starts on the interesting boundaries.
	seg := SegmentHeader()
	rec, err := EncodeRecord(nil, "shape|4-8-8-8|keep8", []byte(`{"opts":[{"cycles":42}]}`))
	if err != nil {
		f.Fatal(err)
	}
	seg = append(seg, rec...)
	rec2, err := EncodeRecord(nil, "k2", bytes.Repeat([]byte{0xF5}, 37))
	if err != nil {
		f.Fatal(err)
	}
	seg = append(seg, rec2...)
	f.Add(seg)
	f.Add(seg[:len(seg)-5])
	f.Add(seg[:segHeaderLen])
	flipped := append([]byte(nil), seg...)
	flipped[segHeaderLen+20] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("NNBSTOR1"))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeSegment(data, func(key string, val []byte) {
			if len(key) == 0 || len(key) > MaxKeyLen || len(val) > MaxValLen {
				t.Fatalf("decoder emitted out-of-bounds record: key %d B, val %d B", len(key), len(val))
			}
			// The framed form of every emitted record must literally occur
			// in the input — the decoder may only ever return stored bytes.
			frame, ferr := EncodeRecord(nil, key, val)
			if ferr != nil {
				t.Fatalf("emitted record does not re-encode: %v", ferr)
			}
			if !bytes.Contains(data, frame) {
				t.Fatalf("emitted record not present verbatim in input (key %q)", key)
			}
		})
		if err != nil {
			// Incompatible header: nothing may have been scanned.
			if st.Records != 0 || st.Corrupt != 0 || st.TornTail {
				t.Fatalf("incompatible segment reported scan results: %+v", st)
			}
		}
	})
}
