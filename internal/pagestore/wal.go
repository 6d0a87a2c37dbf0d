package pagestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"repro/internal/obs"
	"repro/internal/rtree"
)

// Write-ahead log. Every tree mutation batch (one Commit of the
// DurableStore) appends its page images, its frees and a terminating
// commit record, then fsyncs once — the classic redo log protocol: a
// crash at any byte offset leaves a prefix of whole records plus at
// most one torn tail, and replay applies exactly the batches whose
// commit record survived. Records are individually checksummed so a
// torn or bit-flipped tail is detected, not replayed.
//
// File layout:
//
//	header (12 bytes):
//	  offset 0  4 bytes  magic "SQWL"
//	  offset 4  uint8    version (1)
//	  offset 5  3 bytes  reserved (zero)
//	  offset 8  uint32   page size
//	records, back to back; each record is
//	  offset 0   uint64  LSN (1-based, contiguous within the log)
//	  offset 8   uint8   type (WALPage, WALFree, WALCommit)
//	  offset 9   3 bytes reserved (zero)
//	  offset 12  uint32  payload length
//	  offset 16  payload
//	  last 4     uint32  IEEE CRC-32 of everything before it
//
// Payloads:
//
//	WALPage:   uint64 page id + the encoded page image (PageSize bytes)
//	WALFree:   uint64 page id
//	WALCommit: uint64 root page id + uint64 object count + uint64 next id
var walMagic = [4]byte{'S', 'Q', 'W', 'L'}

const (
	walVersion    = 1
	walHeaderSize = 12
	walRecHeader  = 16
	walRecTrailer = 4
	maxWALPayload = 1 << 24 // sanity bound; pages are a few KiB
)

// WAL record types.
const (
	WALPage   byte = 1 // a page image staged for the next commit
	WALFree   byte = 2 // a page freed by the next commit
	WALCommit byte = 3 // commit point: root / size / next id
)

// WALRecord is one decoded log record.
type WALRecord struct {
	LSN     uint64
	Type    byte
	Payload []byte
}

// AppendWALRecord serializes rec and appends it to buf, returning the
// extended slice. The inverse of DecodeWALRecord.
func AppendWALRecord(buf []byte, rec WALRecord) []byte {
	return appendWALRecord(buf, rec.LSN, rec.Type, rec.Payload, nil)
}

// appendWALRecord is AppendWALRecord for a payload in two parts (a page
// record's id and image), so that no caller has to join them first.
func appendWALRecord(buf []byte, lsn uint64, typ byte, head, tail []byte) []byte {
	start := len(buf)
	var hdr [walRecHeader]byte
	binary.LittleEndian.PutUint64(hdr[0:], lsn)
	hdr[8] = typ
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(head)+len(tail)))
	buf = append(buf, hdr[:]...)
	buf = append(buf, head...)
	buf = append(buf, tail...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// errTornRecord marks a record that is incomplete or fails its
// checksum — the expected state of a log's final record after a crash,
// and the point where replay stops.
var errTornRecord = errors.New("pagestore: torn or corrupt WAL record")

// DecodeWALRecord decodes one record from the front of buf, returning
// the record and the number of bytes it occupied. A short buffer or a
// checksum mismatch returns errTornRecord (matchable with errors.Is via
// IsTornWALRecord); structurally impossible records (absurd payload
// length, unknown type) are also torn — after a crash the tail can hold
// any bytes at all.
func DecodeWALRecord(buf []byte) (WALRecord, int, error) {
	if len(buf) < walRecHeader+walRecTrailer {
		return WALRecord{}, 0, errTornRecord
	}
	plen := int(binary.LittleEndian.Uint32(buf[12:]))
	if plen > maxWALPayload {
		return WALRecord{}, 0, fmt.Errorf("%w: payload length %d", errTornRecord, plen)
	}
	total := walRecHeader + plen + walRecTrailer
	if len(buf) < total {
		return WALRecord{}, 0, errTornRecord
	}
	sum := crc32.ChecksumIEEE(buf[:walRecHeader+plen])
	if got := binary.LittleEndian.Uint32(buf[walRecHeader+plen:]); got != sum {
		return WALRecord{}, 0, fmt.Errorf("%w: checksum 0x%08x, want 0x%08x", errTornRecord, got, sum)
	}
	rec := WALRecord{
		LSN:  binary.LittleEndian.Uint64(buf[0:]),
		Type: buf[8],
	}
	if rec.Type != WALPage && rec.Type != WALFree && rec.Type != WALCommit {
		return WALRecord{}, 0, fmt.Errorf("%w: unknown record type %d", errTornRecord, rec.Type)
	}
	rec.Payload = make([]byte, plen)
	copy(rec.Payload, buf[walRecHeader:walRecHeader+plen])
	return rec, total, nil
}

// IsTornWALRecord reports whether err marks a torn/corrupt record (the
// normal crash tail, as opposed to an I/O failure).
func IsTornWALRecord(err error) bool { return errors.Is(err, errTornRecord) }

// PageRecordPayload builds a WALPage payload.
func PageRecordPayload(id rtree.PageID, image []byte) []byte {
	p := make([]byte, 8+len(image))
	binary.LittleEndian.PutUint64(p, uint64(id))
	copy(p[8:], image)
	return p
}

// FreeRecordPayload builds a WALFree payload.
func FreeRecordPayload(id rtree.PageID) []byte {
	p := make([]byte, 8)
	binary.LittleEndian.PutUint64(p, uint64(id))
	return p
}

// CommitRecordPayload builds a WALCommit payload.
func CommitRecordPayload(root rtree.PageID, size int, nextID rtree.PageID) []byte {
	p := make([]byte, 24)
	binary.LittleEndian.PutUint64(p[0:], uint64(root))
	binary.LittleEndian.PutUint64(p[8:], uint64(size))
	binary.LittleEndian.PutUint64(p[16:], uint64(nextID))
	return p
}

// walEntry is a parsed record plus the file offset just past it, so
// recovery can truncate the log back to any record boundary.
type walEntry struct {
	rec WALRecord
	end int64
}

// WAL is an append-only redo log over a block file. Safe for
// concurrent use, though the DurableStore serializes appends itself.
type WAL struct {
	counters *obs.StorageCounters
	pageSize int

	mu      sync.Mutex
	f       BlockFile // guarded by mu
	end     int64     // append offset; guarded by mu
	nextLSN uint64    // guarded by mu
	rec     []byte    // the record being written, reused by the next; guarded by mu
}

// openWAL opens (creating if absent) the log at path, scans it, and
// discards any torn tail. The returned entries are the surviving whole
// records in order; the DurableStore replays the committed prefix.
func openWAL(path string, pageSize int, counters *obs.StorageCounters) (*WAL, []walEntry, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	w, entries, err := newWAL(osBlockFile{f: f}, pageSize, counters)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return w, entries, nil
}

// newWAL builds a WAL over an arbitrary block file (the crash-test
// seam) and performs the open-time scan.
func newWAL(f BlockFile, pageSize int, counters *obs.StorageCounters) (*WAL, []walEntry, error) {
	w := &WAL{counters: counters, pageSize: pageSize, f: f}
	// Open-time: not shared yet, locked anyway for a uniform discipline.
	w.mu.Lock()
	defer w.mu.Unlock()
	size, err := f.Size()
	if err != nil {
		return nil, nil, err
	}
	if size == 0 {
		if err := w.writeHeaderLocked(); err != nil {
			return nil, nil, err
		}
		w.end = walHeaderSize
		w.nextLSN = 1
		return w, nil, nil
	}
	buf := make([]byte, size)
	if n, err := f.ReadAt(buf, 0); err != nil && !errors.Is(err, io.EOF) {
		return nil, nil, fmt.Errorf("pagestore: reading WAL: %w", err)
	} else {
		buf = buf[:n]
	}
	if len(buf) < walHeaderSize {
		// A header torn mid-write: the log never held a record.
		if err := w.resetFileLocked(); err != nil {
			return nil, nil, err
		}
		return w, nil, nil
	}
	if [4]byte(buf[0:4]) != walMagic {
		return nil, nil, fmt.Errorf("pagestore: bad WAL magic %q", buf[0:4])
	}
	if buf[4] != walVersion {
		return nil, nil, fmt.Errorf("pagestore: WAL version %d, want %d", buf[4], walVersion)
	}
	if ps := int(binary.LittleEndian.Uint32(buf[8:])); ps != pageSize {
		return nil, nil, fmt.Errorf("pagestore: WAL page size %d, codec page size %d", ps, pageSize)
	}
	var entries []walEntry
	off := int64(walHeaderSize)
	wantLSN := uint64(1)
	for int(off) < len(buf) {
		rec, n, err := DecodeWALRecord(buf[off:])
		if err != nil || rec.LSN != wantLSN {
			// Torn tail (or garbage past a crash point): stop here and
			// truncate it away so future appends extend a clean prefix.
			break
		}
		off += int64(n)
		wantLSN++
		entries = append(entries, walEntry{rec: rec, end: off})
	}
	if off < size {
		if err := f.Truncate(off); err != nil {
			return nil, nil, fmt.Errorf("pagestore: truncating torn WAL tail: %w", err)
		}
	}
	w.end = off
	w.nextLSN = wantLSN
	return w, entries, nil
}

// writeHeaderLocked writes the log header at offset 0. Callers hold
// w.mu or have exclusive open-time access.
func (w *WAL) writeHeaderLocked() error {
	var hdr [walHeaderSize]byte
	copy(hdr[0:4], walMagic[:])
	hdr[4] = walVersion
	binary.LittleEndian.PutUint32(hdr[8:], uint32(w.pageSize))
	if _, err := w.f.WriteAt(hdr[:], 0); err != nil { //lint:allow lockcheck callers hold w.mu or have exclusive open-time access
		return fmt.Errorf("pagestore: writing WAL header: %w", err)
	}
	return nil
}

// resetFileLocked truncates the log to an empty (header-only) state.
// Callers hold w.mu or have exclusive open-time access.
func (w *WAL) resetFileLocked() error {
	if err := w.f.Truncate(0); err != nil { //lint:allow lockcheck callers hold w.mu or have exclusive open-time access
		return err
	}
	if err := w.writeHeaderLocked(); err != nil {
		return err
	}
	w.end = walHeaderSize //lint:allow lockcheck callers hold w.mu or have exclusive open-time access
	w.nextLSN = 1         //lint:allow lockcheck callers hold w.mu or have exclusive open-time access
	return nil
}

// Append writes one record (assigning it the next LSN) without
// syncing. Durability requires a following Sync — the commit protocol
// appends the whole batch, then syncs once.
func (w *WAL) Append(typ byte, payload []byte) error {
	return w.appendRecord(typ, payload, nil)
}

// AppendPage is Append of the WALPage record for a page image: header,
// page id, image and checksum are put together in the log's own buffer,
// the image copied once.
func (w *WAL) AppendPage(id rtree.PageID, image []byte) error {
	var idBytes [8]byte
	binary.LittleEndian.PutUint64(idBytes[:], uint64(id))
	return w.appendRecord(WALPage, idBytes[:], image)
}

// appendRecord writes one record whose payload is head then tail.
func (w *WAL) appendRecord(typ byte, head, tail []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.rec = appendWALRecord(w.rec[:0], w.nextLSN, typ, head, tail)
	if _, err := w.f.WriteAt(w.rec, w.end); err != nil {
		return fmt.Errorf("pagestore: appending WAL record lsn %d: %w", w.nextLSN, err)
	}
	w.end += int64(len(w.rec))
	w.nextLSN++
	if w.counters != nil {
		w.counters.WALAppends.Add(1)
	}
	return nil
}

// Sync makes all appended records durable: the commit point.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Sync(); err != nil {
		return err
	}
	if w.counters != nil {
		w.counters.WALSyncs.Add(1)
	}
	return nil
}

// Reset discards the whole log — valid only after a checkpoint has
// made every committed batch durable in the data file.
func (w *WAL) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.resetFileLocked()
}

// rewind truncates the log back to a record boundary (end offset of the
// last record to keep, with nextLSN the LSN that follows it). The
// DurableStore uses it at open to drop records after the last commit.
func (w *WAL) rewind(end int64, nextLSN uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Truncate(end); err != nil {
		return err
	}
	w.end = end
	w.nextLSN = nextLSN
	return nil
}

// Close closes the underlying file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}
