package persist

import (
	"encoding/hex"
	"errors"
	"testing"
)

// TestJournalRecordRoundTrip walks a framed record stream back out
// byte-exactly.
func TestJournalRecordRoundTrip(t *testing.T) {
	recs := []journalRecord{
		{op: journalInsert, key: "http://a/1", size: 2048, version: 7},
		{op: journalEvict, key: "http://a/1"},
		{op: journalInsert, key: "", size: 0, version: -3},
		{op: journalInsert, key: "k", size: 1 << 40, version: 1},
	}
	var buf []byte
	for _, r := range recs {
		buf = appendJournalRecord(buf, r)
	}
	var got []journalRecord
	for len(buf) > 0 {
		payload, rest, err := nextFrame(buf)
		if err != nil {
			t.Fatal(err)
		}
		r, err := decodeJournalRecord(payload)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
		buf = rest
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], recs[i])
		}
	}
}

// TestFrameBytesStable pins the on-disk encoding: files written by
// earlier releases must keep decoding, so an insert record, an evict
// record and a bare frame must encode to exactly these bytes.
func TestFrameBytesStable(t *testing.T) {
	const want = "0f000000c82de2e1010a687474703a2f2f612f3180200e" +
		"0e000000a2ad97a8020a687474703a2f2f612f310000" +
		"04000000cc62c592736e6170"
	var b []byte
	b = appendJournalRecord(b, journalRecord{op: journalInsert, key: "http://a/1", size: 2048, version: 7})
	b = appendJournalRecord(b, journalRecord{op: journalEvict, key: "http://a/1"})
	b = appendFrame(b, []byte("snap"))
	if got := hex.EncodeToString(b); got != want {
		t.Fatalf("encoding changed:\n got %s\nwant %s", got, want)
	}
}

// TestNextFrameTornTail: a stream cut mid-frame yields every complete
// frame then errTornFrame — the crash-recovery contract.
func TestNextFrameTornTail(t *testing.T) {
	var buf []byte
	buf = appendJournalRecord(buf, journalRecord{op: journalInsert, key: "a", size: 1, version: 1})
	whole := len(buf)
	buf = appendJournalRecord(buf, journalRecord{op: journalEvict, key: "a"})
	for cut := whole + 1; cut < len(buf); cut++ {
		b := buf[:cut]
		payload, rest, err := nextFrame(b)
		if err != nil {
			t.Fatalf("cut %d: first frame should survive: %v", cut, err)
		}
		if _, err := decodeJournalRecord(payload); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if _, _, err := nextFrame(rest); !errors.Is(err, errTornFrame) {
			t.Fatalf("cut %d: want errTornFrame, got %v", cut, err)
		}
	}
}

// TestNextFrameCorruption: flipped payload bytes and absurd lengths are
// errCorruptFrame, ending the valid prefix.
func TestNextFrameCorruption(t *testing.T) {
	buf := appendJournalRecord(nil, journalRecord{op: journalInsert, key: "abc", size: 9, version: 2})
	bad := append([]byte(nil), buf...)
	bad[len(bad)-1] ^= 0xFF
	if _, _, err := nextFrame(bad); !errors.Is(err, errCorruptFrame) {
		t.Fatalf("payload flip: want errCorruptFrame, got %v", err)
	}
	huge := append([]byte(nil), buf...)
	huge[0], huge[1], huge[2], huge[3] = 0xFF, 0xFF, 0xFF, 0x7F
	if _, _, err := nextFrame(huge); !errors.Is(err, errCorruptFrame) {
		t.Fatalf("huge length: want errCorruptFrame, got %v", err)
	}
	if payload, rest, err := nextFrame(nil); payload != nil || rest != nil || err != nil {
		t.Fatal("empty buffer is a clean end, not an error")
	}
}
