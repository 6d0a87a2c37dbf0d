package pagestore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/rtree"
)

// Records: what a DurableStore keeps beside its pages without knowing
// what it means. Every page has a PageRecord, logged with each image of
// the page; every commit has a state record, logged with its commit
// record. A checkpoint writes all of them into a record table. The
// layer that builds the tree owns the encoding (package parallel keeps a
// page's placement in its record, and the array's history in the
// state).
//
// Record table layout:
//
//	uint32 state length | state record
//	per page, ascending: uint64 page id | PageRecordSize bytes
//
// There are two table files. A checkpoint writes the one the superblock
// does not name, syncs it, and flips the superblock to name it, with
// the table's length and CRC-32: a crash leaves either the old table
// with the old superblock or the new table with the new one.

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

// tableRef is the superblock's pointer to the live record table.
type tableRef struct {
	file uint8  // index into the store's two table files
	size uint32 // table length; 0 means no table was ever written
	crc  uint32 // IEEE CRC-32 of the table
}

const tableEntrySize = 8 + PageRecordSize

// appendTable encodes the state and the records of ids, in that order,
// onto dst.
func appendTable(dst, state []byte, ids []rtree.PageID, recs map[rtree.PageID]PageRecord) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(state)))
	dst = append(dst, state...)
	for _, id := range ids {
		rec := recs[id]
		dst = binary.LittleEndian.AppendUint64(dst, uint64(id))
		dst = append(dst, rec[:]...)
	}
	return dst
}

// readTable reads and checks the table ref names in f, returning the
// state and the page records. A store that never checkpointed has
// neither.
func readTable(f BlockFile, ref tableRef) ([]byte, map[rtree.PageID]PageRecord, error) {
	recs := make(map[rtree.PageID]PageRecord)
	if ref.size == 0 {
		return nil, recs, nil
	}
	buf := make([]byte, ref.size)
	if n, err := f.ReadAt(buf, 0); n != len(buf) {
		return nil, nil, fmt.Errorf("pagestore: reading record table %d: %d of %d bytes: %w", ref.file, n, len(buf), err)
	}
	if sum := crc32.ChecksumIEEE(buf); sum != ref.crc {
		return nil, nil, fmt.Errorf("pagestore: record table %d: checksum 0x%08x, superblock says 0x%08x", ref.file, sum, ref.crc)
	}
	n := -1
	if len(buf) >= 4 {
		n = int(binary.LittleEndian.Uint32(buf))
	}
	if n < 0 || 4+n > len(buf) || (len(buf)-4-n)%tableEntrySize != 0 {
		return nil, nil, fmt.Errorf("pagestore: record table %d: %d bytes cannot hold a %d-byte state and whole records", ref.file, len(buf), n)
	}
	state := buf[4 : 4+n : 4+n]
	for off := 4 + n; off < len(buf); off += tableEntrySize {
		id := rtree.PageID(binary.LittleEndian.Uint64(buf[off:]))
		recs[id] = PageRecord(buf[off+8 : off+tableEntrySize])
	}
	return state, recs, nil
}
