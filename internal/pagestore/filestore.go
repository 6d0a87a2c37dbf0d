package pagestore

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"encoding/binary"

	"repro/internal/obs"
	"repro/internal/rtree"
)

// FileStore is a page-aligned file of encoded R*-tree nodes — the
// persistent realization of the paper's "one node = one disk page"
// layout (§2.1) for a single simulated drive. Page id n lives at byte
// offset n*PageSize; slot 0 is the superblock. Reads are positional
// (pread) or, when enabled and supported, served from a read-only mmap
// of the file; writes are positional (pwrite) and become durable at
// Sync. FileStore itself is a dumb block device with a checksummed
// superblock — crash consistency across multi-page tree operations is
// the job of DurableStore's write-ahead log, which replays into it.
//
// The superblock layout (always in slot 0, pages start at slot 1 —
// rtree page ids start at 1, so the slots line up with ids):
//
//	offset 0   4 bytes  magic "SQFS"
//	offset 4   uint8    version (1)
//	offset 5   uint8    spheres flag
//	offset 6   uint16   dimension
//	offset 8   uint32   page size
//	offset 12  uint64   root page id
//	offset 20  uint64   object count
//	offset 28  uint64   next page id
//	offset 36  uint32   IEEE CRC-32 of bytes 0..36
//
// Slot 0 holds TWO copies of this record: the primary at offset 0 and
// a backup at offset 64. Updates write the backup first, then the
// primary, so a crash mid-update tears at most the copy being written
// and open always finds a copy with a valid checksum. Falling back to
// a stale copy is safe: the WAL is reset only after the superblock is
// durable, so replay re-derives any newer metadata.
var fileMagic = [4]byte{'S', 'Q', 'F', 'S'}

const (
	fileVersion         = 1
	superblockSize      = 40
	superblockBackupOff = 64
)

// FileMeta is the tree metadata persisted in the superblock: everything
// rtree.Restore needs besides the pages themselves.
type FileMeta struct {
	Root   rtree.PageID
	Size   int
	NextID rtree.PageID
}

// FileStoreOptions configures OpenFileStore. The zero value is valid:
// pread-only access and no telemetry.
type FileStoreOptions struct {
	// Mmap maps the file read-only and serves page reads from the
	// mapping when possible (reads past the mapped length fall back to
	// pread; the mapping is refreshed on Sync). Silently ignored on
	// platforms without mmap support and on non-OS block files.
	Mmap bool
	// Counters, when non-nil, receives PageReads/PageWrites/DataSyncs.
	Counters *obs.StorageCounters
}

// FileStore implements page-granular persistent storage for one drive.
// Safe for concurrent use.
type FileStore struct {
	codec    Codec
	counters *obs.StorageCounters
	osf      *os.File  // non-nil only for OS-backed stores; needed for mmap
	images   sync.Pool // *[]byte page buffers for ReadPage's pread path, which decodes and drops the image

	mu   sync.Mutex
	f    BlockFile // guarded by mu
	meta FileMeta  // guarded by mu
	mmap []byte    // current read-only mapping, nil when disabled; guarded by mu
	old  [][]byte  // superseded mappings, unmapped at Close; guarded by mu
	want bool      // mmap requested; guarded by mu
}

// OpenFileStore opens (creating if absent) the page file at path. An
// existing file must carry a superblock matching the codec's page size,
// dimensionality and sphere layout.
func OpenFileStore(path string, codec Codec, opts FileStoreOptions) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	fs, err := newFileStore(osBlockFile{f: f}, codec, opts)
	if err != nil {
		f.Close()
		return nil, err
	}
	fs.osf = f
	if opts.Mmap {
		fs.mu.Lock()
		fs.remapLocked()
		fs.mu.Unlock()
	}
	return fs, nil
}

// NewFileStoreOn builds a store over a caller-supplied block file (the
// crash-test injection seam). The Mmap option is ignored — mapping
// needs a real OS file.
func NewFileStoreOn(f BlockFile, codec Codec, opts FileStoreOptions) (*FileStore, error) {
	return newFileStore(f, codec, opts)
}

// newFileStore builds a store over an arbitrary block file (the seam
// the crash tests use; mmap is only possible over real OS files).
func newFileStore(f BlockFile, codec Codec, opts FileStoreOptions) (*FileStore, error) {
	if codec.PageSize < superblockBackupOff+superblockSize {
		return nil, fmt.Errorf("pagestore: page size %d smaller than the superblock pair (%d bytes)",
			codec.PageSize, superblockBackupOff+superblockSize)
	}
	fs := &FileStore{codec: codec, counters: opts.Counters, f: f, want: opts.Mmap}
	// Open-time: the store is not shared yet, but lock anyway to keep
	// the guarded-field discipline uniform.
	fs.mu.Lock()
	defer fs.mu.Unlock()
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	if size == 0 {
		fs.meta = FileMeta{NextID: 1}
		if err := fs.writeMetaLocked(); err != nil {
			return nil, err
		}
		return fs, nil
	}
	meta, fromBackup, err := fs.readSuperblock()
	if err != nil {
		return nil, err
	}
	fs.meta = meta
	if fromBackup {
		// The primary copy was torn (crash mid-update). Heal it now so a
		// second crash before the next checkpoint still finds a valid
		// copy; durability rides on the next Sync.
		if err := fs.writeMetaLocked(); err != nil {
			return nil, err
		}
	}
	return fs, nil
}

// readSuperblock reads and validates slot 0, falling back to the backup
// copy when the primary is torn. fromBackup reports that the fallback
// was taken. Called before the store is shared, so no locking.
func (fs *FileStore) readSuperblock() (meta FileMeta, fromBackup bool, err error) {
	meta, errPrimary := fs.readSuperblockAt(0)
	if errPrimary == nil {
		return meta, false, nil
	}
	meta, errBackup := fs.readSuperblockAt(superblockBackupOff)
	if errBackup == nil {
		return meta, true, nil
	}
	return FileMeta{}, false, fmt.Errorf(
		"pagestore: both superblock copies invalid: %w; backup: %v", errPrimary, errBackup)
}

// readSuperblockAt reads and validates one superblock copy.
func (fs *FileStore) readSuperblockAt(off int64) (FileMeta, error) {
	var sb [superblockSize]byte
	if _, err := fs.f.ReadAt(sb[:], off); err != nil { //lint:allow lockcheck open-time, store not yet shared
		return FileMeta{}, fmt.Errorf("pagestore: reading superblock: %w", err)
	}
	if [4]byte(sb[0:4]) != fileMagic {
		return FileMeta{}, fmt.Errorf("pagestore: bad file magic %q", sb[0:4])
	}
	if sb[4] != fileVersion {
		return FileMeta{}, fmt.Errorf("pagestore: file version %d, want %d", sb[4], fileVersion)
	}
	sum := crc32.ChecksumIEEE(sb[:36])
	if got := binary.LittleEndian.Uint32(sb[36:]); got != sum {
		return FileMeta{}, fmt.Errorf("pagestore: superblock checksum mismatch: 0x%08x vs 0x%08x", got, sum)
	}
	spheres := sb[5] == 1
	dim := int(binary.LittleEndian.Uint16(sb[6:]))
	pageSize := int(binary.LittleEndian.Uint32(sb[8:]))
	if spheres != fs.codec.Spheres || dim != fs.codec.Dim || pageSize != fs.codec.PageSize {
		return FileMeta{}, fmt.Errorf(
			"pagestore: file layout (dim=%d page=%d spheres=%v) does not match codec (dim=%d page=%d spheres=%v)",
			dim, pageSize, spheres, fs.codec.Dim, fs.codec.PageSize, fs.codec.Spheres)
	}
	return FileMeta{
		Root:   rtree.PageID(binary.LittleEndian.Uint64(sb[12:])),
		Size:   int(binary.LittleEndian.Uint64(sb[20:])),
		NextID: rtree.PageID(binary.LittleEndian.Uint64(sb[28:])),
	}, nil
}

// writeMetaLocked serializes fs.meta into slot 0: backup copy first,
// then the primary, as two separate writes, so a crash tears at most
// one of them (see the superblock layout comment). Callers hold fs.mu
// (or, at open time, have exclusive access).
func (fs *FileStore) writeMetaLocked() error {
	var sb [superblockSize]byte
	copy(sb[0:4], fileMagic[:])
	sb[4] = fileVersion
	if fs.codec.Spheres {
		sb[5] = 1
	}
	binary.LittleEndian.PutUint16(sb[6:], uint16(fs.codec.Dim))
	binary.LittleEndian.PutUint32(sb[8:], uint32(fs.codec.PageSize))
	m := fs.meta //lint:allow lockcheck callers hold fs.mu or have exclusive open-time access
	binary.LittleEndian.PutUint64(sb[12:], uint64(m.Root))
	binary.LittleEndian.PutUint64(sb[20:], uint64(m.Size))
	binary.LittleEndian.PutUint64(sb[28:], uint64(m.NextID))
	binary.LittleEndian.PutUint32(sb[36:], crc32.ChecksumIEEE(sb[:36]))
	if _, err := fs.f.WriteAt(sb[:], superblockBackupOff); err != nil { //lint:allow lockcheck callers hold fs.mu or have exclusive open-time access
		return fmt.Errorf("pagestore: writing backup superblock: %w", err)
	}
	if _, err := fs.f.WriteAt(sb[:], 0); err != nil { //lint:allow lockcheck callers hold fs.mu or have exclusive open-time access
		return fmt.Errorf("pagestore: writing superblock: %w", err)
	}
	return nil
}

// WriteMeta persists new tree metadata to the superblock. It does not
// sync; pair with Sync for durability.
func (fs *FileStore) WriteMeta(m FileMeta) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.meta = m
	return fs.writeMetaLocked()
}

// Meta returns the last written tree metadata.
func (fs *FileStore) Meta() FileMeta {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.meta
}

// pageOffset maps a page id to its byte offset (slot 0 is the
// superblock; valid ids start at 1).
func (fs *FileStore) pageOffset(id rtree.PageID) (int64, error) {
	if id < 1 {
		return 0, fmt.Errorf("pagestore: page id %d out of range (slot 0 is the superblock)", id)
	}
	return int64(id) * int64(fs.codec.PageSize), nil
}

// WriteImage writes one already-encoded page image at its slot. The
// image must be exactly one page.
func (fs *FileStore) WriteImage(id rtree.PageID, buf []byte) error {
	if len(buf) != fs.codec.PageSize {
		return fmt.Errorf("pagestore: image for page %d is %d bytes, want %d", id, len(buf), fs.codec.PageSize)
	}
	off, err := fs.pageOffset(id)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, err := fs.f.WriteAt(buf, off); err != nil {
		return fmt.Errorf("pagestore: writing page %d: %w", id, err)
	}
	if fs.counters != nil {
		fs.counters.PageWrites.Add(1)
	}
	return nil
}

// WriteNode encodes and writes a node to its page slot.
func (fs *FileStore) WriteNode(n *rtree.Node) error {
	buf, err := fs.codec.Encode(n)
	if err != nil {
		return err
	}
	return fs.WriteImage(n.ID, buf)
}

// ZeroPage overwrites a page slot with zeroes — the on-disk
// representation of a freed page (LoadPages skips slots without the
// node magic).
func (fs *FileStore) ZeroPage(id rtree.PageID) error {
	off, err := fs.pageOffset(id)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	size, err := fs.f.Size()
	if err != nil {
		return err
	}
	if off >= size {
		return nil // never written; nothing to erase
	}
	zero := make([]byte, fs.codec.PageSize)
	if _, err := fs.f.WriteAt(zero, off); err != nil {
		return fmt.Errorf("pagestore: zeroing page %d: %w", id, err)
	}
	if fs.counters != nil {
		fs.counters.PageWrites.Add(1)
	}
	return nil
}

// ReadImage reads the raw image of one page into a buffer the caller
// owns. A short read — the slot lies past the end of the file, or the
// file was truncated mid-page — surfaces as an error wrapping
// io.ErrUnexpectedEOF, exactly what a real drive returning fewer bytes
// than asked looks like to callers.
func (fs *FileStore) ReadImage(id rtree.PageID) ([]byte, error) {
	off, err := fs.pageOffset(id)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, fs.codec.PageSize)
	if m, f := fs.source(off); m != nil {
		copy(buf, m)
	} else if err := fs.pread(f, id, off, buf); err != nil {
		return nil, err
	}
	if fs.counters != nil {
		fs.counters.PageReads.Add(1)
	}
	return buf, nil
}

// source returns where the page at off is read from: its image inside
// the current mapping when the mapping covers it, else the block file
// to pread. A mapping handed out stays valid until Close — Sync only
// supersedes it.
func (fs *FileStore) source(off int64) (mapped []byte, f BlockFile) {
	fs.mu.Lock()
	m := fs.mmap
	f = fs.f
	fs.mu.Unlock()
	if end := off + int64(fs.codec.PageSize); m != nil && end <= int64(len(m)) {
		return m[off:end:end], nil
	}
	return nil, f
}

// pread fills buf with the page at off, mapping a short read to
// io.ErrUnexpectedEOF.
func (fs *FileStore) pread(f BlockFile, id rtree.PageID, off int64, buf []byte) error {
	n, err := f.ReadAt(buf, off)
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("pagestore: short read of page %d (%d of %d bytes): %w",
				id, n, fs.codec.PageSize, io.ErrUnexpectedEOF)
		}
		return fmt.Errorf("pagestore: reading page %d: %w", id, err)
	}
	return nil
}

// ReadPage implements Reader: a physical page read plus decode, with
// the misdirected-read identity check (decoded id must equal the slot).
// On the mmap path the decoder reads the image where it is mapped; the
// pread path reads it into a pooled buffer. Either way the decoder
// copies every field out, so the view keeps no reference to the image.
func (fs *FileStore) ReadPage(id rtree.PageID) (*rtree.FlatNode, error) {
	off, err := fs.pageOffset(id)
	if err != nil {
		return nil, err
	}
	img, f := fs.source(off)
	if img == nil {
		bp, _ := fs.images.Get().(*[]byte)
		if bp == nil {
			buf := make([]byte, fs.codec.PageSize)
			bp = &buf
		}
		defer fs.images.Put(bp)
		if err := fs.pread(f, id, off, *bp); err != nil {
			return nil, err
		}
		img = *bp
	}
	if fs.counters != nil {
		fs.counters.PageReads.Add(1)
	}
	return decodeChecked(fs.codec, id, img)
}

// LoadPages scans every page slot and returns the images that hold an
// encoded node (slots without the node magic — freed or never written —
// are skipped). Used at open to rebuild the committed page set.
func (fs *FileStore) LoadPages() (map[rtree.PageID][]byte, error) {
	fs.mu.Lock()
	size, err := fs.f.Size()
	fs.mu.Unlock()
	if err != nil {
		return nil, err
	}
	pages := make(map[rtree.PageID][]byte)
	slots := size / int64(fs.codec.PageSize)
	for slot := int64(1); slot < slots; slot++ {
		id := rtree.PageID(slot)
		buf, err := fs.ReadImage(id)
		if err != nil {
			return nil, err
		}
		if buf[0] != magic {
			continue
		}
		pages[id] = buf
	}
	return pages, nil
}

// Codec returns the store's codec.
func (fs *FileStore) Codec() Codec { return fs.codec }

// Sync flushes all writes to stable storage and refreshes the read
// mapping (the file may have grown past the mapped length).
func (fs *FileStore) Sync() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.f.Sync(); err != nil {
		return err
	}
	if fs.counters != nil {
		fs.counters.DataSyncs.Add(1)
	}
	if fs.want {
		fs.remapLocked()
	}
	return nil
}

// remapLocked (re)establishes the read-only mapping over the file's
// current length. Mapping failures silently fall back to pread — mmap
// is an optimization, never a correctness requirement. Superseded
// mappings are retired (unmapped) at Close, not here: a concurrent
// ReadPage may still be decoding out of one. Callers hold fs.mu.
func (fs *FileStore) remapLocked() {
	if fs.osf == nil {
		return
	}
	size, err := fs.f.Size() //lint:allow lockcheck callers hold fs.mu
	if err != nil || size == 0 {
		return
	}
	m, err := mmapFile(fs.osf, int(size))
	if err != nil {
		return
	}
	if prev := fs.mmap; prev != nil { //lint:allow lockcheck callers hold fs.mu
		fs.old = append(fs.old, prev) //lint:allow lockcheck callers hold fs.mu
	}
	fs.mmap = m //lint:allow lockcheck callers hold fs.mu
}

// Mapped reports whether reads are currently served from an mmap.
func (fs *FileStore) Mapped() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.mmap != nil
}

// Close unmaps every mapping (current and superseded) and closes the
// file. Unmap failures don't stop the remaining cleanup; all errors
// are joined.
func (fs *FileStore) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var err error
	if fs.mmap != nil {
		err = errors.Join(err, munmap(fs.mmap))
		fs.mmap = nil
	}
	for _, m := range fs.old {
		err = errors.Join(err, munmap(m))
	}
	fs.old = nil
	return errors.Join(err, fs.f.Close())
}
