package pagestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/rtree"
)

// Records: what a DurableStore keeps beside its pages without knowing
// what it means. Every page has a PageRecord, logged with each image of
// the page; every commit has a state record, logged with its commit
// record. A checkpoint writes all of them, with the tree's metadata,
// into a record table. The layer that builds the tree owns the encoding
// (package parallel keeps a page's placement in its record, and the
// array's history in the state).
//
// A record table fills its file, which holds nothing else:
//
//	offset 0   4 bytes  magic "SQRT"
//	offset 4   uint8    version (1)
//	offset 5   7 bytes  page layout (see putLayout)
//	offset 12  uint32   table length, this header included
//	offset 16  uint64   checkpoint sequence number (1, 2, ...)
//	offset 24  uint64   root page id
//	offset 32  uint64   object count
//	offset 40  uint64   next page id
//	offset 48  uint32   IEEE CRC-32 of every other byte of the table
//	offset 52  uint32 state length | state record
//	           per page, ascending: uint64 page id | PageRecordSize bytes
//
// There are two table files. Checkpoint n writes file n mod 2, and its
// sync is the checkpoint's commit point: open takes the newest table
// that checks out. A crash tears only the table being written, and the
// log, reset only once that table is durable, still holds every batch
// since the other one.

// PageRecordSize is the length of every page's record.
const PageRecordSize = 16

// PageRecord is the opaque record a DurableStore keeps for a page.
type PageRecord [PageRecordSize]byte

// PageRecorder supplies the record a Commit logs with each dirty page.
type PageRecorder interface {
	PageRecord(id rtree.PageID) PageRecord
}

// tableFileNames are the two record-table files of a DurableStore
// directory.
var tableFileNames = [2]string{"records-0.db", "records-1.db"}

var tableMagic = [4]byte{'S', 'Q', 'R', 'T'}

const (
	tableVersion    = 1
	tableHeaderSize = 52
	tableEntrySize  = 8 + PageRecordSize
)

// treeMeta is the committed tree metadata: what rtree.Restore needs
// besides the pages, and the next page id to allocate.
type treeMeta struct {
	Root   rtree.PageID
	Size   int
	NextID rtree.PageID
}

// recordTable is one record table, decoded.
type recordTable struct {
	seq    uint64 // the checkpoint that wrote it; 0: none
	layout Codec  // Dim, PageSize and Spheres
	meta   treeMeta
	state  []byte
	recs   map[rtree.PageID]PageRecord
}

// appendTable encodes t onto dst, its records in the order of ids.
func appendTable(dst []byte, t *recordTable, ids []rtree.PageID) []byte {
	start := len(dst)
	var hdr [tableHeaderSize]byte
	copy(hdr[:], tableMagic[:])
	hdr[4] = tableVersion
	putLayout(hdr[:], t.layout)
	binary.LittleEndian.PutUint64(hdr[16:], t.seq)
	binary.LittleEndian.PutUint64(hdr[24:], uint64(t.meta.Root))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(t.meta.Size))
	binary.LittleEndian.PutUint64(hdr[40:], uint64(t.meta.NextID))
	dst = append(dst, hdr[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(t.state)))
	dst = append(dst, t.state...)
	for _, id := range ids {
		rec := t.recs[id]
		dst = binary.LittleEndian.AppendUint64(dst, uint64(id))
		dst = append(dst, rec[:]...)
	}
	buf := dst[start:]
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(buf)))
	binary.LittleEndian.PutUint32(buf[48:], tableCRC(buf))
	return dst
}

// tableCRC is the checksum of a table: every byte but the checksum's.
func tableCRC(buf []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(buf[:48]), crc32.IEEETable, buf[tableHeaderSize:])
}

// decodeTable decodes a record table from the whole content of its
// file, or says why the bytes are not one: torn by a crash, never
// written, or damaged.
func decodeTable(buf []byte) (recordTable, error) {
	if len(buf) < tableHeaderSize+4 || [4]byte(buf) != tableMagic {
		return recordTable{}, fmt.Errorf("%d bytes, no table header", len(buf))
	}
	if buf[4] != tableVersion {
		return recordTable{}, fmt.Errorf("version %d", buf[4])
	}
	if n := binary.LittleEndian.Uint32(buf[12:]); int64(n) != int64(len(buf)) {
		return recordTable{}, fmt.Errorf("header says %d bytes, the file holds %d", n, len(buf))
	}
	if got, sum := binary.LittleEndian.Uint32(buf[48:]), tableCRC(buf); got != sum {
		return recordTable{}, fmt.Errorf("checksum 0x%08x, want 0x%08x", got, sum)
	}
	body := buf[tableHeaderSize:]
	n := int(binary.LittleEndian.Uint32(body))
	if n > len(body)-4 || (len(body)-4-n)%tableEntrySize != 0 {
		return recordTable{}, fmt.Errorf("%d bytes cannot hold a %d-byte state and whole records", len(body), n)
	}
	// Only what appendTable writes decodes: one spheres bit, page ids
	// that fit a PageID, records in ascending page order.
	root, next := binary.LittleEndian.Uint64(buf[24:]), binary.LittleEndian.Uint64(buf[40:])
	if buf[5] > 1 || root > math.MaxInt32 || next > math.MaxInt32 {
		return recordTable{}, fmt.Errorf("flags %#x, root %d, next page %d", buf[5], root, next)
	}
	t := recordTable{
		seq:    binary.LittleEndian.Uint64(buf[16:]),
		layout: headerLayout(buf),
		meta:   treeMeta{Root: rtree.PageID(root), Size: int(binary.LittleEndian.Uint64(buf[32:])), NextID: rtree.PageID(next)},
		state:  body[4 : 4+n : 4+n],
		recs:   make(map[rtree.PageID]PageRecord, (len(body)-4-n)/tableEntrySize),
	}
	prev := uint64(0)
	for off := 4 + n; off < len(body); off += tableEntrySize {
		id := binary.LittleEndian.Uint64(body[off:])
		if id <= prev || id > math.MaxInt32 {
			return recordTable{}, fmt.Errorf("page %d after page %d", id, prev)
		}
		prev = id
		t.recs[rtree.PageID(id)] = PageRecord(body[off+8 : off+tableEntrySize])
	}
	return t, nil
}

// tableFiles are a store's two record-table files; checkpoint n writes
// file n mod 2.
type tableFiles [2]BlockFile

// newest reads both tables and returns the newest that checks out —
// an empty one (checkpoint 0) when neither does — once its page layout
// matches codec, with the checkpoint the log follows. A log follows
// (mod 128) the newest table's checkpoint or, after a crash between
// the table's sync and the log's reset, the one before; anything else
// means a newer table the log was reset after is lost. follows < 0 (no
// log header) checks nothing: open starts the log over after the
// newest table.
func (tf tableFiles) newest(codec Codec, follows int) (recordTable, uint64, error) {
	newest := recordTable{recs: make(map[rtree.PageID]PageRecord)}
	var invalid []error
	for i, f := range tf {
		size, err := f.Size()
		buf := make([]byte, size)
		if err == nil && size > 0 {
			_, err = f.ReadAt(buf, 0)
		}
		if err != nil {
			return recordTable{}, 0, fmt.Errorf("pagestore: reading %s: %w", tableFileNames[i], err)
		}
		t, err := decodeTable(buf)
		if err != nil {
			invalid = append(invalid, fmt.Errorf("pagestore: invalid record table %s: %w", tableFileNames[i], err))
			continue
		}
		if t.seq > newest.seq {
			newest = t
		}
	}
	if newest.seq > 0 {
		if err := checkLayout(newest.layout, codec); err != nil {
			return recordTable{}, 0, err
		}
	}
	switch {
	case follows < 0 || uint64(follows) == newest.seq%128:
		return newest, newest.seq, nil
	case newest.seq > 0 && uint64(follows) == (newest.seq-1)%128:
		return newest, newest.seq - 1, nil
	}
	lost := fmt.Errorf("pagestore: the log follows checkpoint %d (mod 128), the newest valid record table is checkpoint %d",
		follows, newest.seq)
	return recordTable{}, 0, errors.Join(append([]error{lost}, invalid...)...)
}

// write writes the encoded record table of checkpoint seq to its file,
// which it fills, without syncing it: the sync is the checkpoint's
// commit point.
func (tf tableFiles) write(seq uint64, table []byte) error {
	f := tf[seq%2]
	if _, err := f.WriteAt(table, 0); err != nil {
		return fmt.Errorf("pagestore: writing %s: %w", tableFileNames[seq%2], err)
	}
	return f.Truncate(int64(len(table)))
}
