package pagestore

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/rtree"
)

// pageRecordPayload builds a WALPage payload.
func pageRecordPayload(id rtree.PageID, rec PageRecord, image []byte) []byte {
	p := binary.LittleEndian.AppendUint64(nil, uint64(id))
	p = append(p, rec[:]...)
	return append(p, image...)
}

// freeRecordPayload builds a WALFree payload.
func freeRecordPayload(id rtree.PageID) []byte {
	return binary.LittleEndian.AppendUint64(nil, uint64(id))
}

// commitRecordPayload builds the payload of a WALCommit record without
// a state record.
func commitRecordPayload(root rtree.PageID, size int, nextID rtree.PageID) []byte {
	p := binary.LittleEndian.AppendUint64(nil, uint64(root))
	p = binary.LittleEndian.AppendUint64(p, uint64(size))
	return binary.LittleEndian.AppendUint64(p, uint64(nextID))
}

// openWAL opens (creating if absent) the log at path, scans it, and
// discards any torn tail, as DurableStore's open does. The returned
// entries are the surviving whole records in order; the DurableStore
// replays the committed prefix.
func openWAL(path string, pageSize int, counters *obs.StorageCounters) (*WAL, []walEntry, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	w, entries, follows, err := newWAL(osBlockFile{f: f}, Codec{Dim: 2, PageSize: pageSize}, counters)
	if err == nil {
		if follows < 0 {
			err = w.Reset(0)
		} else {
			err = w.rewind(w.end, w.nextLSN)
		}
	}
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return w, entries, nil
}

func walPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "wal.log")
}

func TestWALRecordRoundTrip(t *testing.T) {
	recs := []WALRecord{
		{LSN: 1, Type: WALPage, Payload: pageRecordPayload(7, PageRecord{}, make([]byte, 512))},
		{LSN: 2, Type: WALFree, Payload: freeRecordPayload(9)},
		{LSN: 3, Type: WALCommit, Payload: commitRecordPayload(1, 42, 10)},
	}
	var buf []byte
	for _, r := range recs {
		buf = AppendWALRecord(buf, r)
	}
	off := 0
	for i, want := range recs {
		got, n, err := DecodeWALRecord(buf[off:])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.LSN != want.LSN || got.Type != want.Type || len(got.Payload) != len(want.Payload) {
			t.Fatalf("record %d: decoded %+v, want %+v", i, got, want)
		}
		off += n
	}
	if off != len(buf) {
		t.Errorf("consumed %d of %d bytes", off, len(buf))
	}
}

func TestWALAppendScanTornTail(t *testing.T) {
	path := walPath(t)
	var counters obs.StorageCounters
	w, entries, err := openWAL(path, 512, &counters)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("fresh WAL returned %d entries", len(entries))
	}
	for i := 0; i < 5; i++ {
		if _, err := w.appendRecord(WALFree, freeRecordPayload(rtree.PageID(i+1)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Cut the file at every byte length and reopen: the scan must return
	// the longest whole-record prefix, never an error, and truncate the
	// tail so appends resume cleanly.
	recLen := (len(full) - walHeaderSize) / 5
	for cut := walHeaderSize; cut <= len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w2, entries, err := openWAL(path, 512, nil)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		wantRecs := (cut - walHeaderSize) / recLen
		if len(entries) != wantRecs {
			t.Fatalf("cut %d: %d entries, want %d", cut, len(entries), wantRecs)
		}
		// Appends after a torn tail must land on a record boundary.
		if _, err := w2.appendRecord(WALCommit, commitRecordPayload(1, 1, 2), nil); err != nil {
			t.Fatal(err)
		}
		w2.Close()
		w3, entries3, err := openWAL(path, 512, nil)
		if err != nil {
			t.Fatalf("cut %d reopen: %v", cut, err)
		}
		if len(entries3) != wantRecs+1 {
			t.Fatalf("cut %d reopen: %d entries, want %d", cut, len(entries3), wantRecs+1)
		}
		w3.Close()
	}
}

func TestWALScanStopsAtCorruptRecord(t *testing.T) {
	path := walPath(t)
	w, _, err := openWAL(path, 512, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.appendRecord(WALFree, freeRecordPayload(rtree.PageID(i+1)), nil); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recLen := (len(raw) - walHeaderSize) / 3
	// Corrupt one payload byte of the second record.
	raw[walHeaderSize+recLen+walRecHeader] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, entries, err := openWAL(path, 512, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("scan past corrupt record: %d entries, want 1", len(entries))
	}
}

func TestWALRejectsPageSizeMismatch(t *testing.T) {
	path := walPath(t)
	w, _, err := openWAL(path, 512, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, _, err := openWAL(path, 1024, nil); err == nil {
		t.Error("openWAL accepted a page-size mismatch")
	}
}

func TestWALReset(t *testing.T) {
	path := walPath(t)
	w, _, err := openWAL(path, 512, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := w.appendRecord(WALFree, freeRecordPayload(rtree.PageID(i+1)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Reset(1); err != nil {
		t.Fatal(err)
	}
	if _, err := w.appendRecord(WALCommit, commitRecordPayload(0, 0, 1), nil); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, entries, err := openWAL(path, 512, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].rec.LSN != 1 {
		t.Errorf("after reset: %d entries, first LSN %d; want 1 entry at LSN 1",
			len(entries), entries[0].rec.LSN)
	}
}
