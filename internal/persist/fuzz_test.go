package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mapcomp/internal/catalog"
)

// crashMatrixWAL writes the WAL the crash-matrix tests start from —
// every mutation kind, via populate — and returns its bytes.
func crashMatrixWAL(tb testing.TB) []byte {
	dir := tb.TempDir()
	store, cat := openStore(tb, dir, Options{SnapshotEvery: -1})
	populate(tb, cat)
	store.Close()
	data, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// crashMatrixSnapshot writes the snapshot a populated catalog compacts
// into and returns its bytes.
func crashMatrixSnapshot(tb testing.TB) []byte {
	dir := tb.TempDir()
	store, cat := openStore(tb, dir, Options{SnapshotEvery: -1})
	populate(tb, cat)
	if err := store.Snapshot(cat); err != nil {
		tb.Fatal(err)
	}
	store.Close()
	data, err := os.ReadFile(filepath.Join(dir, snapshotName(cat.Generation())))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzDecodeFrames throws arbitrary bytes at the WAL decoder. It must
// never panic, and its result must be one of the two recovery outcomes:
// an error wrapping ErrCorrupt with no records, or a valid prefix
// (validLen ≤ len(data)) whose every record has a generation and a
// kind. Decoding the valid prefix alone must give the same records, and
// every record must re-frame through encodeFrame to a frame that
// decodes back to the same payload. The seeds are the crash-matrix WAL
// and the torn and bit-flipped variants those tests write.
//
// Run `go test -fuzz=FuzzDecodeFrames ./internal/persist/` to explore.
func FuzzDecodeFrames(f *testing.F) {
	wal := crashMatrixWAL(f)

	// The committed encoding is a fixpoint: re-framing the decoded
	// records reproduces the log byte for byte.
	recs, validLen, err := decodeFrames(wal)
	if err != nil || validLen != len(wal) || len(recs) != 6 {
		f.Fatalf("fixture: %d records, validLen %d of %d, err %v", len(recs), validLen, len(wal), err)
	}
	var reframed []byte
	for _, rec := range recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		reframed = append(reframed, encodeFrame(payload)...)
	}
	if !bytes.Equal(reframed, wal) {
		f.Fatal("re-framing the decoded records does not reproduce the WAL")
	}

	f.Add(wal)
	f.Add([]byte{})
	for _, cut := range []int{1, 7, 15} { // torn inside length, checksums, payload
		f.Add(wal[:len(wal)-cut])
	}
	payloadFlip := bytes.Clone(wal)
	payloadFlip[frameHeaderLen+2] ^= 0xff
	f.Add(payloadFlip)
	lengthFlip := bytes.Clone(wal)
	lengthFlip[1] |= 0x40
	f.Add(lengthFlip)
	f.Add(encodeFrame([]byte(`{"gen":0,"kind":"schema"}`)))
	f.Add(encodeFrame([]byte(`not json`)))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, validLen, err := decodeFrames(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v does not wrap ErrCorrupt", err)
			}
			if recs != nil {
				t.Fatalf("corrupt log returned %d records", len(recs))
			}
			return
		}
		if validLen < 0 || validLen > len(data) {
			t.Fatalf("validLen %d outside [0, %d]", validLen, len(data))
		}
		for i, rec := range recs {
			if rec.Gen == 0 || rec.Kind == "" {
				t.Fatalf("record %d has gen %d kind %q", i, rec.Gen, rec.Kind)
			}
		}
		again, againLen, err := decodeFrames(data[:validLen])
		if err != nil || againLen != validLen || !reflect.DeepEqual(again, recs) {
			t.Fatalf("valid prefix decodes differently: %d records, validLen %d, err %v", len(again), againLen, err)
		}
		for i, rec := range recs {
			payload, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			back, n, err := decodeFrames(encodeFrame(payload))
			if err != nil || len(back) != 1 || n != frameHeaderLen+len(payload) {
				t.Fatalf("record %d does not round-trip: %d records, err %v", i, len(back), err)
			}
			if p2, _ := json.Marshal(back[0]); !bytes.Equal(p2, payload) {
				t.Fatalf("record %d round-trips to %s, want %s", i, p2, payload)
			}
		}
	})
}

// FuzzSnapshotRestore writes arbitrary bytes as the newest snapshot file
// and runs the boot path over it: loadLatestSnapshot, then
// restoreSnapshot into a virgin catalog. Every input must end in an
// error or a restored catalog at the document's generation, never a
// panic. The file is named after the generation the document claims,
// offset by skew, so both the restore and the name-mismatch check are
// reachable. The seeds are the crash-matrix snapshot and truncations.
//
// Run `go test -fuzz=FuzzSnapshotRestore ./internal/persist/` to explore.
func FuzzSnapshotRestore(f *testing.F) {
	snap := crashMatrixSnapshot(f)
	f.Add(snap, uint8(0))
	f.Add(snap, uint8(1))
	f.Add(snap[:len(snap)/2], uint8(0))
	f.Add([]byte(`{"generation":1,"schemas":null,"mappings":null}`), uint8(0))
	f.Add([]byte(`{"generation":1,"schemas":[{"name":"s","generation":1,"relations":{"R":2},"keys":{"R":[9]}}]}`), uint8(0))
	f.Add([]byte(`{"generation":2,"schemas":[{"name":"a","generation":1,"relations":{"R":1}},{"name":"b","generation":1,"relations":{"T":1}}],`+
		`"mappings":[{"name":"m","from":"a","to":"b","generation":2,"constraints":["R <= T"]}]}`), uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, skew uint8) {
		var claim struct {
			Generation uint64 `json:"generation"`
		}
		// Bytes that do not decode keep generation 0 for the file name;
		// loadLatestSnapshot must then report the decode error itself.
		json.Unmarshal(data, &claim)
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapshotName(claim.Generation+uint64(skew))), data, 0o644); err != nil {
			t.Fatal(err)
		}
		doc, ok, err := loadLatestSnapshot(dir)
		if err != nil {
			return
		}
		if !ok {
			t.Fatal("snapshot file written but not found")
		}
		cat := catalog.New()
		if err := restoreSnapshot(doc, cat); err != nil {
			return
		}
		if got := cat.Generation(); got != doc.Generation {
			t.Fatalf("restored catalog at generation %d, document claims %d", got, doc.Generation)
		}
	})
}
