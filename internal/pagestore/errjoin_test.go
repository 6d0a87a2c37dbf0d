package pagestore_test

// DurableStore.Close must report every file's close error instead of
// the first masking the rest: a Close that returned only the WAL's would
// swallow the data file's and the record tables' close diagnostics.

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
	errTables := [2]error{errors.New("records-0 close failed"), errors.New("records-1 close failed")}
	data := &failCloseFile{closeErr: errData}
	wal := &failCloseFile{closeErr: errWAL}
	tables := [2]pagestore.BlockFile{&failCloseFile{closeErr: errTables[0]}, &failCloseFile{closeErr: errTables[1]}}
	codec := pagestore.Codec{Dim: 2, PageSize: 512}

	ds, err := pagestore.OpenDurableOn(data, wal, tables, codec, pagestore.DurableOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	err = ds.Close()
	if err == nil {
		t.Fatal("Close returned nil with every file failing")
	}
	for _, want := range []error{errWAL, errData, errTables[0], errTables[1]} {
		if !errors.Is(err, want) {
			t.Errorf("Close error %v does not report %q", err, want)
		}
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
