package pagestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/lockrank"
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
//	  offset 4  uint8    version (3; an older log is refused)
//	  offset 5  7 bytes  page layout (see putLayout); bits 1–7 of byte 5
//	                     hold the checkpoint the log follows, mod 128
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
//	WALPage:   uint64 page id + the page's record (PageRecordSize bytes)
//	           + the encoded page image (PageSize bytes)
//	WALFree:   uint64 page id
//	WALCommit: uint64 root page id + uint64 object count + uint64 next id
//	           + the commit's state record (the rest of the payload)
var walMagic = [4]byte{'S', 'Q', 'W', 'L'}

const (
	walVersion    = 3
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

// appendWALRecord serializes a record whose payload is head then tail
// (a page record's id and image, so that no caller has to join them
// first) and appends it to buf, returning the extended slice. The
// inverse of DecodeWALRecord.
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
// checksum mismatch returns errTornRecord (matchable with errors.Is);
// structurally impossible records (absurd payload
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
	codec    Codec // the page layout the header records

	mu      lockrank.Mutex[lockrank.WALMu]
	f       BlockFile // guarded by mu
	end     int64     // append offset; guarded by mu
	nextLSN uint64    // guarded by mu
	rec     []byte    // the record being written, reused by the next; guarded by mu
}

// newWAL builds a WAL over a block file and reads it: the header,
// checked against codec, and the whole records after it, in order. It
// writes nothing; OpenDurableOn readies the file once it has checked
// the whole directory. follows is the checkpoint the log follows, mod
// 128, or -1 when the file holds no header (never written, or torn).
func newWAL(f BlockFile, codec Codec, counters *obs.StorageCounters) (w *WAL, entries []walEntry, follows int, err error) {
	w = &WAL{counters: counters, codec: codec, f: f}
	// Open-time: not shared yet, locked anyway for a uniform discipline.
	w.mu.Lock()
	defer w.mu.Unlock()
	size, err := f.Size()
	if err != nil {
		return nil, nil, 0, err
	}
	w.nextLSN = 1
	if size < walHeaderSize {
		return w, nil, -1, nil
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil {
		return nil, nil, 0, fmt.Errorf("pagestore: reading WAL: %w", err)
	}
	if [4]byte(buf[0:4]) != walMagic {
		return nil, nil, 0, fmt.Errorf("pagestore: bad WAL magic %q", buf[0:4])
	}
	if buf[4] != walVersion {
		return nil, nil, 0, fmt.Errorf("pagestore: WAL version %d, want %d: the directory predates "+
			"the current format and cannot be opened; rebuild it", buf[4], walVersion)
	}
	if err := checkLayout(headerLayout(buf), codec); err != nil {
		return nil, nil, 0, err
	}
	off := int64(walHeaderSize)
	for int(off) < len(buf) {
		rec, n, err := DecodeWALRecord(buf[off:])
		if err != nil || rec.LSN != w.nextLSN {
			// Torn tail (or garbage past a crash point): open
			// truncates it away so appends extend a clean prefix.
			break
		}
		off += int64(n)
		w.nextLSN++
		entries = append(entries, walEntry{rec: rec, end: off})
	}
	w.end = off
	return w, entries, int(buf[5] >> 1), nil
}

// AppendPage appends the WALPage record of a page image, assigning it
// the next LSN, without syncing: durability requires a following Sync —
// the commit protocol appends the whole batch, then syncs once. Header,
// page id, record, image and checksum are put together in the log's own
// buffer, the image copied once. It returns the record's offset, where
// readPage finds it again.
func (w *WAL) AppendPage(id rtree.PageID, rec PageRecord, image []byte) (int64, error) {
	var head [8 + PageRecordSize]byte
	binary.LittleEndian.PutUint64(head[:], uint64(id))
	copy(head[8:], rec[:])
	return w.appendRecord(WALPage, head[:], image)
}

// appendFree appends the WALFree record of a page.
func (w *WAL) appendFree(id rtree.PageID) error {
	var head [8]byte
	binary.LittleEndian.PutUint64(head[:], uint64(id))
	_, err := w.appendRecord(WALFree, head[:], nil)
	return err
}

// appendCommit appends a commit record: the tree metadata, then the
// commit's state record.
func (w *WAL) appendCommit(root rtree.PageID, size int, nextID rtree.PageID, state []byte) error {
	var head [24]byte
	binary.LittleEndian.PutUint64(head[0:], uint64(root))
	binary.LittleEndian.PutUint64(head[8:], uint64(size))
	binary.LittleEndian.PutUint64(head[16:], uint64(nextID))
	_, err := w.appendRecord(WALCommit, head[:], state)
	return err
}

// appendRecord writes one record whose payload is head then tail, and
// returns its offset: the one append of every record type.
func (w *WAL) appendRecord(typ byte, head, tail []byte) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.end < walHeaderSize {
		return 0, errors.New("pagestore: the WAL lost its header in a failed reset; reopen the store")
	}
	w.rec = appendWALRecord(w.rec[:0], w.nextLSN, typ, head, tail)
	off := w.end
	if _, err := w.f.WriteAt(w.rec, off); err != nil {
		return 0, fmt.Errorf("pagestore: appending WAL record lsn %d: %w", w.nextLSN, err)
	}
	w.end += int64(len(w.rec))
	w.nextLSN++
	if w.counters != nil {
		w.counters.WALAppends.Add(1)
	}
	return off, nil
}

// pageRecordLen is the length of a WALPage record of a pageSize page.
func pageRecordLen(pageSize int) int {
	return walRecHeader + 8 + PageRecordSize + pageSize + walRecTrailer
}

// readPage reads the WALPage record of page id at off back into buf,
// which must hold pageRecordLen bytes, and returns the page image
// within it. A record that fails its checksum or is no page record is
// refused, and so, with an *IntegrityError, is another page's.
func (w *WAL) readPage(off int64, id rtree.PageID, buf []byte) ([]byte, error) {
	n := pageRecordLen(w.codec.PageSize)
	buf = buf[:n]
	w.mu.Lock()
	_, err := w.f.ReadAt(buf, off)
	w.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("pagestore: reading the WAL record of page %d at offset %d: %w", id, off, err)
	}
	body := buf[:n-walRecTrailer]
	if binary.LittleEndian.Uint32(buf[len(body):]) != crc32.ChecksumIEEE(body) ||
		buf[8] != WALPage || int(binary.LittleEndian.Uint32(buf[12:])) != len(body)-walRecHeader {
		return nil, fmt.Errorf("pagestore: WAL record of page %d at offset %d: %w", id, off, errTornRecord)
	}
	if got := rtree.PageID(binary.LittleEndian.Uint64(buf[walRecHeader:])); got != id {
		return nil, &IntegrityError{Want: id, Got: got}
	}
	return body[walRecHeader+8+PageRecordSize:], nil
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

// Reset discards the whole log and starts it over, following
// checkpoint ckpt — valid only once that checkpoint's record table is
// durable. When the header cannot be written after the log was emptied,
// the log takes no record until a reopen writes it: open starts a log
// with no header over after the newest table.
func (w *WAL) Reset(ckpt uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	w.end = 0
	var hdr [walHeaderSize]byte
	copy(hdr[0:4], walMagic[:])
	hdr[4] = walVersion
	putLayout(hdr[:], w.codec)
	hdr[5] |= byte(ckpt%128) << 1
	if _, err := w.f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("pagestore: writing WAL header: %w", err)
	}
	w.end = walHeaderSize
	w.nextLSN = 1
	return nil
}

// mark returns the append offset and the next LSN: the point rewind
// returns the log to.
func (w *WAL) mark() (int64, uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.end, w.nextLSN
}

// rewind truncates the log back to a record boundary (end offset of the
// last record to keep, with nextLSN the LSN that follows it): at open,
// past the last commit; in a failed Commit, back to where its batch
// started.
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
