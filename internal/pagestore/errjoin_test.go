package pagestore_test

// Regression tests for the error-propagation fixes surfaced by the
// errlost analyzer (PR 8): DurableStore.Close must report BOTH file
// close errors instead of the WAL error masking the data file's.
// Before the fix, Close returned only the first failure, so a torn-down
// store could swallow the data file's close diagnostics.

import (
	"errors"
	"testing"

	"repro/internal/pagestore"
)

// failCloseFile is an in-memory BlockFile whose Close fails with a
// distinguishable sentinel.
type failCloseFile struct {
	buf      []byte
	closeErr error
}

func (f *failCloseFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(f.buf)) {
		return 0, errors.New("EOF")
	}
	n := copy(p, f.buf[off:])
	return n, nil
}

func (f *failCloseFile) WriteAt(p []byte, off int64) (int, error) {
	if grow := off + int64(len(p)) - int64(len(f.buf)); grow > 0 {
		f.buf = append(f.buf, make([]byte, grow)...)
	}
	copy(f.buf[off:], p)
	return len(p), nil
}

func (f *failCloseFile) Sync() error { return nil }

func (f *failCloseFile) Truncate(size int64) error {
	if size < int64(len(f.buf)) {
		f.buf = f.buf[:size]
	}
	return nil
}

func (f *failCloseFile) Size() (int64, error) { return int64(len(f.buf)), nil }

func (f *failCloseFile) Close() error { return f.closeErr }

func TestDurableCloseJoinsBothErrors(t *testing.T) {
	errData := errors.New("data close failed")
	errWAL := errors.New("wal close failed")
	data := &failCloseFile{closeErr: errData}
	wal := &failCloseFile{closeErr: errWAL}
	codec := pagestore.Codec{Dim: 2, PageSize: 512}

	ds, err := pagestore.OpenDurableOn(data, wal, [2]pagestore.BlockFile{&failCloseFile{}, &failCloseFile{}}, codec, pagestore.DurableOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	err = ds.Close()
	if err == nil {
		t.Fatal("Close returned nil with both files failing")
	}
	if !errors.Is(err, errWAL) {
		t.Errorf("Close error %v does not report the WAL close failure", err)
	}
	if !errors.Is(err, errData) {
		// The pre-fix code returned only the WAL error, masking this one.
		t.Errorf("Close error %v does not report the data-file close failure", err)
	}
}

func TestDurableCloseCleanIsNil(t *testing.T) {
	codec := pagestore.Codec{Dim: 2, PageSize: 512}
	ds, err := pagestore.OpenDurableOn(&failCloseFile{}, &failCloseFile{}, [2]pagestore.BlockFile{&failCloseFile{}, &failCloseFile{}}, codec, pagestore.DurableOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := ds.Close(); err != nil {
		t.Fatalf("clean Close: %v", err)
	}
}
