package pagestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/lockrank"
	"repro/internal/obs"
	"repro/internal/rtree"
)

// DurableStore is the crash-safe rtree.Store: the decoded pages in
// memory, a FileStore holding the checkpointed pages, and a WAL holding
// everything committed since. Mutations (Allocate/Update/Free) stage in
// memory; Commit makes a batch durable (WAL append + one fsync);
// Checkpoint folds the committed state into the data file and resets
// the WAL.
//
// Memory holds each page once, as its node. A page committed since the
// last checkpoint keeps its image in one place, its WAL record: tail
// names the record, and Checkpoint reads it back from the log. Commit
// encodes and Checkpoint copies through one page buffer (DESIGN.md,
// decision 17).
//
// Recovery: OpenDurable reads the newest valid record table, replays
// the WAL's committed batches in LSN order (redo only — every record is
// idempotent, so replaying after a crash mid-checkpoint is safe),
// decodes the checkpointed pages the log does not name, and truncates
// whatever follows the last commit record.
//
// Beside every page the store keeps the page's opaque record, and beside
// the committed state the last commit's state record (records.go): the
// one place the tree's placement state is kept.
type DurableStore struct {
	codec    Codec
	fs       *FileStore
	wal      *WAL
	tables   tableFiles
	counters *obs.StorageCounters

	mu         lockrank.RWMutex[lockrank.DurableMu]
	nodes      map[rtree.PageID]*rtree.Node // every page, decoded; guarded by mu
	dirty      map[rtree.PageID]bool        // pages updated since last Commit; guarded by mu
	freedStage map[rtree.PageID]bool        // staged frees since last Commit; guarded by mu
	cur        treeMeta                     // committed; Commit assigns it once its batch is durable; guarded by mu
	tail       map[rtree.PageID]int64       // WAL offset of each page committed since the last checkpoint; guarded by mu
	ckptFreed  map[rtree.PageID]bool        // freed since last checkpoint; guarded by mu
	nextID     rtree.PageID                 // guarded by mu
	ckpt       uint64                       // the checkpoint the log follows: the next writes table ckpt+1; guarded by mu
	recs       map[rtree.PageID]PageRecord  // committed record of every committed page; guarded by mu
	state      []byte                       // the last commit's state record; guarded by mu

	// page is the one page buffer, sized for a whole WAL page record:
	// Commit encodes each dirty page into it, Checkpoint reads each
	// record back into it.
	page []byte // guarded by mu

	// Commit's and Checkpoint's working lists, reused.
	ids, freedIDs []rtree.PageID // guarded by mu
	offs          []int64        // guarded by mu
	pageRecs      []PageRecord   // guarded by mu
	table         []byte         // guarded by mu
}

// DurableOptions configures OpenDurable. The zero value is valid.
type DurableOptions struct {
	// Counters, when non-nil, receives all storage telemetry.
	Counters *obs.StorageCounters
}

// Standard file names inside a DurableStore directory.
const (
	DataFileName = "pages.db"
	WALFileName  = "wal.log"
)

// OpenDurable opens (creating if absent) the store rooted at dir,
// running crash recovery if the WAL holds committed batches.
func OpenDurable(dir string, codec Codec, opts DurableOptions) (*DurableStore, error) {
	var files [4]BlockFile
	closeAll := func() error {
		var errs []error
		for _, f := range files {
			if f != nil {
				errs = append(errs, f.Close())
			}
		}
		return errors.Join(errs...)
	}
	for i, name := range [4]string{DataFileName, WALFileName, tableFileNames[0], tableFileNames[1]} {
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return nil, errors.Join(err, closeAll())
		}
		files[i] = osBlockFile{f: f}
	}
	s, err := OpenDurableOn(files[0], files[1], [2]BlockFile{files[2], files[3]}, codec, opts)
	if err != nil {
		return nil, errors.Join(err, closeAll())
	}
	return s, nil
}

// OpenDurableOn assembles a store over caller-supplied block files —
// the dependency-injection seam the crash-recovery torture tests use to
// run the full commit/checkpoint/recover protocol against in-memory
// files that tear their writes at programmed sync points — and recovers
// it. It checks the whole directory before it writes a byte.
func OpenDurableOn(data, wal BlockFile, tables [2]BlockFile, codec Codec, opts DurableOptions) (*DurableStore, error) {
	w, entries, follows, err := newWAL(wal, codec, opts.Counters)
	if err != nil {
		return nil, err
	}
	t, ckpt, err := tableFiles(tables).newest(codec, follows)
	if err != nil {
		return nil, err
	}
	s := &DurableStore{
		codec:    codec,
		fs:       &FileStore{codec: codec, counters: opts.Counters, f: data},
		wal:      w,
		counters: opts.Counters,
		nodes:    make(map[rtree.PageID]*rtree.Node),
		dirty:    make(map[rtree.PageID]bool),

		freedStage: make(map[rtree.PageID]bool),
		tail:       make(map[rtree.PageID]int64),
		ckptFreed:  make(map[rtree.PageID]bool),
		cur:        t.meta,
		nextID:     max(t.meta.NextID, 1),
		ckpt:       ckpt,
		recs:       t.recs,
		state:      t.state,
		tables:     tables,
		page:       make([]byte, pageRecordLen(codec.PageSize)),
	}
	end, lsn, err := s.replay(entries)
	if err != nil {
		return nil, err
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	// A log with no header starts over after the newest checkpoint; any
	// other is cut back to its last commit.
	if follows < 0 {
		err = w.Reset(t.seq)
	} else {
		err = w.rewind(end, lsn)
	}
	if err != nil {
		return nil, fmt.Errorf("pagestore: recovering the WAL: %w", err)
	}
	return s, nil
}

// putLayout writes c's page layout into bytes 5–11 of a header: the
// WAL's and every record table's.
//
//	offset 5  uint8   bit 0: spheres flag
//	offset 6  uint16  dimension
//	offset 8  uint32  page size
func putLayout(hdr []byte, c Codec) {
	hdr[5] = 0
	if c.Spheres {
		hdr[5] = 1
	}
	binary.LittleEndian.PutUint16(hdr[6:], uint16(c.Dim))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(c.PageSize))
}

// headerLayout reads the page layout in bytes 5–11 of a header.
func headerLayout(hdr []byte) Codec {
	return Codec{
		Dim:      int(binary.LittleEndian.Uint16(hdr[6:])),
		PageSize: int(binary.LittleEndian.Uint32(hdr[8:])),
		Spheres:  hdr[5]&1 == 1,
	}
}

// checkLayout refuses a directory written with another page layout
// than open's, naming the first field that differs.
func checkLayout(dir, open Codec) error {
	for _, f := range []struct {
		name      string
		dir, open any
	}{
		{"Dim", dir.Dim, open.Dim},
		{"PageSize", dir.PageSize, open.PageSize},
		{"UseSpheres", dir.Spheres, open.Spheres},
	} {
		if f.dir != f.open {
			return fmt.Errorf("pagestore: directory was written with %s %v, opened with %v", f.name, f.dir, f.open)
		}
	}
	return nil
}

// load decodes the checkpointed pages replay did not replace or free.
// The slot of a page the log names is stale, or torn by a crash
// mid-checkpoint, and is not read; a page that nothing names refuses
// the directory.
func (s *DurableStore) load() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.fs.ScanPages(func(id rtree.PageID, img []byte) error {
		if _, logged := s.tail[id]; logged || s.ckptFreed[id] {
			return nil
		}
		if _, ok := s.recs[id]; !ok {
			// Every checkpointed page is in the table that checkpoint
			// wrote: a page neither it nor the log names belongs to a
			// table that is lost.
			return fmt.Errorf("pagestore: the data file holds page %d, which neither the record table nor the WAL names", id)
		}
		n, err := recovered(s.codec, id, img)
		if err != nil {
			return err
		}
		s.nodes[id] = n
		s.nextID = max(s.nextID, id+1)
		return nil
	})
	if err != nil {
		return err
	}
	// A committed tree whose root was still an empty fresh node has no
	// root image; synthesize the empty node so rtree.Restore can walk.
	if s.cur.Root != 0 {
		if _, ok := s.nodes[s.cur.Root]; !ok && s.cur.Size == 0 {
			s.nodes[s.cur.Root] = &rtree.Node{ID: s.cur.Root}
		}
	}
	return nil
}

// recovered decodes a recovered image of page id, with the
// misdirected-read identity check.
func recovered(codec Codec, id rtree.PageID, img []byte) (*rtree.Node, error) {
	n, err := codec.DecodeNode(img)
	if err != nil {
		return nil, fmt.Errorf("pagestore: recovering page %d: %w", id, err)
	}
	if n.ID != id {
		return nil, &IntegrityError{Want: id, Got: n.ID}
	}
	return n, nil
}

// replay applies the WAL's committed batches in LSN order — each page
// record noted in tail, each free record dropping its page — and
// decodes the last image of each page the log holds into the node map.
// It returns where the last commit record ends and the LSN after it:
// what follows is a batch whose commit never became durable. Runs at
// open, before the store is shared; it takes the lock anyway to keep
// the locking discipline uniform.
func (s *DurableStore) replay(entries []walEntry) (end int64, nextLSN uint64, err error) {
	if len(entries) == 0 {
		return walHeaderSize, 1, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.counters != nil {
		s.counters.Recoveries.Add(1)
	}
	// Records after the last commit belong to a batch whose commit never
	// became durable: they are dropped, not applied.
	committed := len(entries)
	for committed > 0 && entries[committed-1].rec.Type != WALCommit {
		committed--
	}
	imgs := make(map[rtree.PageID][]byte)
	off := int64(walHeaderSize) // where entries[i] starts
	for _, e := range entries[:committed] {
		rec := e.rec
		switch rec.Type {
		case WALPage:
			const head = 8 + PageRecordSize
			if len(rec.Payload) != head+s.codec.PageSize {
				return 0, 0, fmt.Errorf("pagestore: WAL page record lsn %d: payload %d bytes, want %d",
					rec.LSN, len(rec.Payload), head+s.codec.PageSize)
			}
			id := rtree.PageID(binary.LittleEndian.Uint64(rec.Payload))
			imgs[id] = rec.Payload[head:]
			s.tail[id] = off
			s.recs[id] = PageRecord(rec.Payload[8:head])
			delete(s.ckptFreed, id)
		case WALFree:
			if len(rec.Payload) != 8 {
				return 0, 0, fmt.Errorf("pagestore: WAL free record lsn %d: payload %d bytes, want 8",
					rec.LSN, len(rec.Payload))
			}
			id := rtree.PageID(binary.LittleEndian.Uint64(rec.Payload))
			delete(imgs, id)
			delete(s.tail, id)
			delete(s.recs, id)
			s.ckptFreed[id] = true
		case WALCommit:
			if len(rec.Payload) < 24 {
				return 0, 0, fmt.Errorf("pagestore: WAL commit record lsn %d: payload %d bytes, want at least 24",
					rec.LSN, len(rec.Payload))
			}
			s.cur = treeMeta{
				Root:   rtree.PageID(binary.LittleEndian.Uint64(rec.Payload[0:])),
				Size:   int(binary.LittleEndian.Uint64(rec.Payload[8:])),
				NextID: rtree.PageID(binary.LittleEndian.Uint64(rec.Payload[16:])),
			}
			s.nextID = s.cur.NextID
			s.state = rec.Payload[24:]
		}
		if s.counters != nil {
			s.counters.ReplayedRecords.Add(1)
		}
		off = e.end
	}
	for id, img := range imgs {
		n, err := recovered(s.codec, id, img)
		if err != nil {
			return 0, 0, err
		}
		s.nodes[id] = n
	}
	// LSNs are contiguous from 1.
	return off, uint64(committed) + 1, nil
}

// Get implements rtree.Store.
func (s *DurableStore) Get(id rtree.PageID) *rtree.Node {
	s.mu.RLock()
	n, ok := s.nodes[id]
	s.mu.RUnlock()
	if !ok {
		panic(fmt.Sprintf("pagestore: unknown page %d", id))
	}
	return n
}

// Allocate implements rtree.Store.
func (s *DurableStore) Allocate(level int) *rtree.Node {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := &rtree.Node{ID: s.nextID, Level: level}
	s.nextID++
	s.nodes[n.ID] = n
	return n
}

// Update implements rtree.Store: the page is marked for the next
// Commit, which encodes it once, in the state it has then — however
// many times the batch touched it. A node that has outgrown its page
// panics here, where it happened (capacity misconfiguration, a
// programming error); what else can fail to encode fails the Commit.
func (s *DurableStore) Update(n *rtree.Node) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n.InvalidateFlat()
	if err := s.codec.checkCapacity(n); err != nil {
		panic(err)
	}
	s.dirty[n.ID] = true
	delete(s.freedStage, n.ID)
}

// Free implements rtree.Store.
func (s *DurableStore) Free(id rtree.PageID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.nodes, id)
	delete(s.dirty, id)
	s.freedStage[id] = true
}

// Len implements rtree.Store.
func (s *DurableStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.nodes)
}

// Commit makes every staged mutation durable: page and free records
// append to the WAL in sorted page order, a commit record carrying the
// tree metadata and state terminates the batch, and one WAL fsync makes
// it the new durable state. root and size are the tree's post-batch
// metadata (tree.Root(), tree.Len()); state is the commit's state
// record, and recs gives each dirty page's record (nil: zero records).
// The store copies state; the caller may reuse it. A Commit that fails
// to encode or append returns the log to where the batch started.
func (s *DurableStore) Commit(root rtree.PageID, size int, state []byte, recs PageRecorder) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The root must always have a durable image, or recovery cannot
	// rebuild the tree. A fresh empty root never saw Update — stage it
	// on the spot.
	if root != 0 && !s.dirty[root] {
		if _, committed := s.recs[root]; !committed {
			if _, ok := s.nodes[root]; ok {
				s.dirty[root] = true
			}
		}
	}
	s.ids = sortedIDs(s.ids, s.dirty)
	s.freedIDs = sortedIDs(s.freedIDs, s.freedStage)
	dirtyIDs, freedIDs := s.ids, s.freedIDs

	// Each dirty page is encoded into the page buffer and appended; the
	// log copies the image into its own record.
	end, lsn := s.wal.mark()
	offs, pageRecs := s.offs[:0], s.pageRecs[:0]
	for _, id := range dirtyIDs {
		img, err := s.codec.EncodeInto(s.page, s.nodes[id])
		if err != nil {
			return s.abort(end, lsn, err)
		}
		var rec PageRecord
		if recs != nil {
			rec = recs.PageRecord(id)
		}
		off, err := s.wal.AppendPage(id, rec, img)
		if err != nil {
			return s.abort(end, lsn, err)
		}
		offs, pageRecs = append(offs, off), append(pageRecs, rec)
	}
	s.offs, s.pageRecs = offs, pageRecs
	for _, id := range freedIDs {
		if err := s.wal.appendFree(id); err != nil {
			return s.abort(end, lsn, err)
		}
	}
	if err := s.wal.appendCommit(root, size, s.nextID, state); err != nil {
		return s.abort(end, lsn, err)
	}
	if err := s.wal.Sync(); err != nil {
		return err
	}

	s.cur = treeMeta{Root: root, Size: size, NextID: s.nextID}
	for i, id := range dirtyIDs {
		s.tail[id] = offs[i]
		s.recs[id] = pageRecs[i]
		delete(s.ckptFreed, id)
	}
	for _, id := range freedIDs {
		delete(s.tail, id)
		delete(s.recs, id)
		s.ckptFreed[id] = true
	}
	s.state = append(s.state[:0], state...)
	clear(s.dirty)
	clear(s.freedStage)
	return nil
}

// abort truncates the log back to end (nextLSN lsn), where a failed
// Commit's batch started, and returns err — joined with the rewind's
// own error when that fails too.
func (s *DurableStore) abort(end int64, lsn uint64, err error) error {
	if rerr := s.wal.rewind(end, lsn); rerr != nil {
		return errors.Join(err, fmt.Errorf("pagestore: rewinding the failed batch: %w", rerr))
	}
	return err
}

// sortedIDs refills dst with the pages of set in ascending order.
func sortedIDs[V any](dst []rtree.PageID, set map[rtree.PageID]V) []rtree.PageID {
	dst = dst[:0]
	for id := range set {
		dst = append(dst, id)
	}
	slices.Sort(dst)
	return dst
}

// Checkpoint copies every page committed since the last checkpoint
// from its WAL record into the data file, zeroes freed slots and syncs
// it; then writes the record table of the next checkpoint — the tree
// metadata, the state and every page's record — into the table file
// the newest does not occupy, syncs that, and resets the WAL. A record
// that fails its checksum, or is not the page's, stops it before the
// table is written. Crash-safe at any point: until the table's sync the
// previous table is the newest that checks out, and until the WAL reset
// the log still holds every batch since it — redo replay over an
// arbitrarily partial checkpoint converges to the same state (records
// are idempotent page images). The table written is always the one
// after the checkpoint the log follows: after a failed reset, or a
// reopen of a log that follows the table before the newest, the next
// Checkpoint rewrites the newest table rather than the older one.
func (s *DurableStore) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ids = sortedIDs(s.ids, s.tail)
	for _, id := range s.ids {
		img, err := s.wal.readPage(s.tail[id], id, s.page)
		if err != nil {
			return err
		}
		if err := s.fs.WriteImage(id, img); err != nil {
			return err
		}
	}
	s.freedIDs = sortedIDs(s.freedIDs, s.ckptFreed)
	for _, id := range s.freedIDs {
		if err := s.fs.ZeroPage(id); err != nil {
			return err
		}
	}
	if err := s.fs.Sync(); err != nil {
		return err
	}
	seq := s.ckpt + 1
	s.ids = sortedIDs(s.ids, s.recs)
	s.table = appendTable(s.table[:0], &recordTable{
		seq:    seq,
		layout: s.codec,
		meta:   s.cur,
		state:  s.state,
		recs:   s.recs,
	}, s.ids)
	if err := s.tables.write(seq, s.table); err != nil {
		return err
	}
	if err := s.tables[seq%2].Sync(); err != nil {
		return err
	}
	if s.counters != nil {
		s.counters.DataSyncs.Add(1)
	}
	if err := s.wal.Reset(seq); err != nil {
		return err
	}
	s.ckpt = seq
	clear(s.tail)
	clear(s.ckptFreed)
	if s.counters != nil {
		s.counters.Checkpoints.Add(1)
	}
	return nil
}

// Record returns a committed page's record.
func (s *DurableStore) Record(id rtree.PageID) (PageRecord, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec, ok := s.recs[id]
	return rec, ok
}

// State returns a copy of the last commit's state record (nil when the
// store holds no commit, or its commits carried none).
func (s *DurableStore) State() []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return bytes.Clone(s.state)
}

// Meta returns the committed tree metadata (what recovery would
// restore right now).
func (s *DurableStore) Meta() treeMeta {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cur
}

// Close closes the WAL, the data file and the record tables. It does
// not commit or checkpoint — callers decide what the final durable
// state is.
func (s *DurableStore) Close() error {
	return errors.Join(s.wal.Close(), s.fs.Close(), s.tables[0].Close(), s.tables[1].Close())
}
