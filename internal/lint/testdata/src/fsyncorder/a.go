// Package fsyncorder is golden-test input for the fsyncorder analyzer.
// The mock WAL/FileStore/tableFiles/BlockFile types mirror internal/pagestore's
// protocol surface by name — the analyzer's op table matches on
// receiver type and method names, so these stdlib-only mocks exercise
// the same rows as the real store.
package fsyncorder

import "errors"

type WAL struct{}

func (w *WAL) Append(b []byte) error { return nil }
func (w *WAL) Sync() error           { return nil }
func (w *WAL) Reset() error          { return nil }

type FileStore struct{}

func (f *FileStore) WriteImage(page int, b []byte) error { return nil }
func (f *FileStore) ZeroPage(page int) error             { return nil }
func (f *FileStore) Sync() error                         { return nil }

type BlockFile interface {
	WriteAt(b []byte, off int64) (int, error)
	Truncate(n int64) error
	Sync() error
}

type tableFiles [2]BlockFile

func (t tableFiles) write(seq uint64, b []byte) error { return nil }

type store struct {
	wal    *WAL
	fs     *FileStore
	tables tableFiles
	cur    int
}

var errBoom = errors.New("boom")

// goodCommit is the canonical ordering: append, sync, publish.
func (s *store) goodCommit(recs [][]byte) error {
	for _, r := range recs {
		if err := s.wal.Append(r); err != nil {
			return err
		}
	}
	if err := s.wal.Sync(); err != nil {
		return err
	}
	s.cur = s.cur + 1
	return nil
}

// reorderedCommit publishes the epoch before the fsync — the classic
// crash-consistency bug the analyzer exists to catch.
func (s *store) reorderedCommit(recs [][]byte) error {
	for _, r := range recs {
		if err := s.wal.Append(r); err != nil {
			return err
		}
	}
	s.cur = s.cur + 1 // want "reaches epoch publish .cur flip. with a possibly unsynced durable write"
	return s.wal.Sync()
}

// skippedSyncOnOnePath: the fast path forgets the fsync.
func (s *store) skippedSyncOnOnePath(rec []byte, fast bool) error {
	if err := s.wal.Append(rec); err != nil {
		return err
	}
	if !fast {
		if err := s.wal.Sync(); err != nil {
			return err
		}
	}
	s.cur = s.cur + 1 // want "reaches epoch publish .cur flip. with a possibly unsynced durable write"
	return nil
}

// goodCheckpoint mirrors DurableStore.Checkpoint: images, sync, table
// write, table sync, WAL reset.
func (s *store) goodCheckpoint(pages map[int][]byte, seq uint64, table []byte) error {
	for p, b := range pages {
		if err := s.fs.WriteImage(p, b); err != nil {
			return err
		}
	}
	if err := s.fs.Sync(); err != nil {
		return err
	}
	if err := s.tables.write(seq, table); err != nil {
		return err
	}
	if err := s.tables[seq%2].Sync(); err != nil {
		return err
	}
	return s.wal.Reset()
}

// unsyncedTableWrite writes images and then the table that names them
// without the intervening sync.
func (s *store) unsyncedTableWrite(pages map[int][]byte, seq uint64, table []byte) error {
	for p, b := range pages {
		if err := s.fs.WriteImage(p, b); err != nil {
			return err
		}
	}
	if err := s.tables.write(seq, table); err != nil { // want "reaches write with a possibly unsynced durable write"
		return err
	}
	return nil
}

// tableWriteItselfDirties: the table write leaves the table unsynced —
// resetting the WAL right after it without a sync is a torn-table
// window.
func (s *store) tableWriteItselfDirties(seq uint64, table []byte) error {
	if err := s.fs.Sync(); err != nil {
		return err
	}
	if err := s.tables.write(seq, table); err != nil {
		return err
	}
	return s.wal.Reset() // want "reaches Reset with a possibly unsynced durable write"
}

// blockFileSeam: the table's wildcard rows cover the BlockFile seam
// (and any mock implementing it).
func rawTruncatePublish(bf BlockFile, s *store, b []byte) error {
	if _, err := bf.WriteAt(b, 0); err != nil {
		return err
	}
	if err := bf.Truncate(int64(len(b))); err != nil {
		return err
	}
	s.cur = 1 // want "reaches epoch publish .cur flip. with a possibly unsynced durable write"
	return nil
}

func rawSyncedPublish(bf BlockFile, s *store, b []byte) error {
	if _, err := bf.WriteAt(b, 0); err != nil {
		return err
	}
	if err := bf.Sync(); err != nil {
		return err
	}
	s.cur = 1
	return nil
}

// appendAll leaves unsynced appends at its exit; callers that publish
// after calling it inherit the dirt (function summaries).
func (s *store) appendAll(recs [][]byte) error {
	for _, r := range recs {
		if err := s.wal.Append(r); err != nil {
			return err
		}
	}
	return nil
}

// summaryCatchesHelper: the write happened inside the helper.
func (s *store) summaryCatchesHelper(recs [][]byte) error {
	if err := s.appendAll(recs); err != nil {
		return err
	}
	s.cur = s.cur + 1 // want "reaches epoch publish .cur flip. with a possibly unsynced durable write"
	return nil
}

// summarySyncedHelper: sync after the helper discharges it.
func (s *store) summarySyncedHelper(recs [][]byte) error {
	if err := s.appendAll(recs); err != nil {
		return err
	}
	if err := s.wal.Sync(); err != nil {
		return err
	}
	s.cur = s.cur + 1
	return nil
}

// suppressedPublish: an annotated exception (e.g. a recovery path that
// deliberately re-publishes a clean epoch).
func (s *store) suppressedPublish(rec []byte) error {
	if err := s.wal.Append(rec); err != nil {
		return err
	}
	//lint:allow fsyncorder recovery replay re-publishes the epoch it just scanned
	s.cur = s.cur + 1
	return s.wal.Sync()
}
