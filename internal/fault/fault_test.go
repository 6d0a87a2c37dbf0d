package fault

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/pagestore"
	"repro/internal/rtree"
)

// fates replays n I/Os on a fresh injector and records each one's
// (delay, error) pair.
func fates(seed int64, drive int, f Faults, n int) []string {
	in := NewInjector(seed)
	in.Set(drive, f)
	out := make([]string, n)
	for i := range out {
		delay, _, err := in.CheckRead(drive, 0)
		out[i] = delay.String() + "/" + errString(err)
	}
	return out
}

func errString(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

// TestInjectorDeterministic: the fate sequence of a drive is a pure
// function of (seed, drive, I/O ordinal), and independent drives never
// perturb each other's streams.
func TestInjectorDeterministic(t *testing.T) {
	f := Faults{Transient: 0.3, SpikeProb: 0.2, SpikeDelay: time.Millisecond}
	a := fates(42, 3, f, 200)
	b := fates(42, 3, f, 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("io %d: %q vs %q on identical replay", i, a[i], b[i])
		}
	}

	// Interleaving another drive's I/Os must not shift drive 3's fates.
	in := NewInjector(42)
	in.Set(3, f)
	in.Set(7, f)
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			in.CheckRead(7, 0)
		}
		delay, _, err := in.CheckRead(3, 0)
		if got := delay.String() + "/" + errString(err); got != a[i] {
			t.Fatalf("io %d: %q under interleaving, %q solo", i, got, a[i])
		}
	}

	// A different seed must produce a different fate sequence.
	c := fates(43, 3, f, 200)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 42 and 43 produced identical fate sequences")
	}
}

// TestFailStopAfterN: the FailAfter-th I/O is the first to fail, and
// every I/O after it fails too.
func TestFailStopAfterN(t *testing.T) {
	in := NewInjector(1)
	in.Set(0, Faults{FailAfter: 5})
	for i := 1; i <= 10; i++ {
		_, _, err := in.CheckRead(0, 0)
		if i < 5 && err != nil {
			t.Fatalf("io %d failed before FailAfter: %v", i, err)
		}
		if i >= 5 && !errors.Is(err, ErrDiskDead) {
			t.Fatalf("io %d: err = %v, want ErrDiskDead", i, err)
		}
	}
	if got := in.IOs(0); got != 10 {
		t.Fatalf("IOs = %d, want 10", got)
	}
}

// TestDeadOnArrival: Dead stops a drive before its first I/O, whether it
// is programmed up front or set on a drive at run time.
func TestDeadOnArrival(t *testing.T) {
	in := NewInjector(1)
	in.Set(0, Faults{Dead: true})
	if _, _, err := in.CheckRead(0, 0); !errors.Is(err, ErrDiskDead) {
		t.Fatalf("Dead drive served an I/O: %v", err)
	}

	if _, _, err := in.CheckRead(1, 0); err != nil {
		t.Fatalf("healthy drive failed: %v", err)
	}
	in.Set(1, Faults{Dead: true})
	if _, _, err := in.CheckRead(1, 0); !errors.Is(err, ErrDiskDead) {
		t.Fatalf("drive set dead at run time served an I/O: %v", err)
	}

	// Unprogrammed drives never fail.
	if _, _, err := in.CheckRead(2, 0); err != nil {
		t.Fatalf("healthy drive failed: %v", err)
	}
}

// TestTransientRate: the injected transient-error frequency tracks the
// configured probability.
func TestTransientRate(t *testing.T) {
	in := NewInjector(7)
	in.Set(0, Faults{Transient: 0.25})
	fails := 0
	const n = 4000
	for i := 0; i < n; i++ {
		if _, _, err := in.CheckRead(0, 0); errors.Is(err, ErrTransient) {
			fails++
		} else if err != nil {
			t.Fatalf("unexpected error class: %v", err)
		}
	}
	rate := float64(fails) / n
	if rate < 0.20 || rate > 0.30 {
		t.Fatalf("transient rate %.3f, configured 0.25", rate)
	}
}

// TestSpikes: latency spikes delay the I/O without failing it, at the
// configured frequency.
func TestSpikes(t *testing.T) {
	in := NewInjector(9)
	in.Set(0, Faults{SpikeProb: 0.5, SpikeDelay: 3 * time.Millisecond})
	spikes := 0
	const n = 1000
	for i := 0; i < n; i++ {
		delay, _, err := in.CheckRead(0, 0)
		if err != nil {
			t.Fatalf("spike-only program failed an I/O: %v", err)
		}
		switch delay {
		case 0:
		case 3 * time.Millisecond:
			spikes++
		default:
			t.Fatalf("unexpected delay %v", delay)
		}
	}
	if spikes < 400 || spikes > 600 {
		t.Fatalf("%d/%d spikes, configured 0.5", spikes, n)
	}
}

// TestSpikeStallsOnlyItsDrive: a spiked read pays its delay outside
// the injector's lock, so reads on another drive, issued back to back
// while the spike sleeps, are never held behind it.
func TestSpikeStallsOnlyItsDrive(t *testing.T) {
	const spike = 200 * time.Millisecond
	in := NewInjector(1)
	in.Set(0, Faults{SpikeProb: 1, SpikeDelay: spike})
	slow := in.Reader(0, &fakeReader{node: &rtree.FlatNode{ID: 1}})
	fast := in.Reader(1, &fakeReader{node: &rtree.FlatNode{ID: 1}})
	done := make(chan error, 1)
	go func() {
		_, err := slow.ReadPage(1)
		done <- err
	}()
	var slowest time.Duration
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if slowest > spike/2 {
				t.Errorf("a read on an unspiked drive took %v: held behind drive 0's %v spike", slowest, spike)
			}
			return
		default:
		}
		start := time.Now()
		if _, err := fast.ReadPage(1); err != nil {
			t.Fatal(err)
		}
		slowest = max(slowest, time.Since(start))
	}
}

// fakeReader serves a fixed page and counts calls.
type fakeReader struct {
	node  *rtree.FlatNode
	calls int
}

func (f *fakeReader) ReadPage(rtree.PageID) (*rtree.FlatNode, error) {
	f.calls++
	return f.node, nil
}

// TestReaderWrapper: the wrapped reader delegates on success and never
// touches the underlying store once the drive is dead.
func TestReaderWrapper(t *testing.T) {
	in := NewInjector(3)
	under := &fakeReader{node: &rtree.FlatNode{ID: 77}}
	rd := in.Reader(0, under)

	n, err := rd.ReadPage(77)
	if err != nil || n.ID != 77 {
		t.Fatalf("healthy read: node %v, err %v", n, err)
	}
	if under.calls != 1 {
		t.Fatalf("underlying reader called %d times, want 1", under.calls)
	}

	in.Set(0, Faults{Dead: true})
	if _, err := rd.ReadPage(77); !errors.Is(err, ErrDiskDead) {
		t.Fatalf("dead drive read: %v, want ErrDiskDead", err)
	}
	if under.calls != 1 {
		t.Fatal("dead drive still reached the underlying store")
	}
}

// TestErrDataUnavailable covers the typed error's matching and
// unwrapping contract.
func TestErrDataUnavailable(t *testing.T) {
	var err error = &ErrDataUnavailable{Disk: 2, Page: 41, Last: ErrDiskDead}

	var dataErr *ErrDataUnavailable
	if !errors.As(err, &dataErr) {
		t.Fatal("errors.As failed to match *ErrDataUnavailable")
	}
	if dataErr.Disk != 2 || dataErr.Page != 41 {
		t.Fatalf("matched error carries disk %d page %d", dataErr.Disk, dataErr.Page)
	}
	if !errors.Is(err, ErrDiskDead) {
		t.Fatal("Unwrap does not expose the underlying replica error")
	}
	if msg := err.Error(); msg == "" {
		t.Fatal("empty error message")
	}
	if msg := (&ErrDataUnavailable{Disk: 0, Page: 1}).Error(); msg == "" {
		t.Fatal("empty error message without Last")
	}
}

// TestInjectorMisdirectedRead is the satellite-1 regression: a drive
// that serves a well-formed page from the wrong address must surface as
// a typed *pagestore.IntegrityError through the injected Reader, never
// as a silently wrong node.
func TestInjectorMisdirectedRead(t *testing.T) {
	const a, b = 1, 2
	fs := fileStoreOf(t, a, b)

	in := NewInjector(1)
	in.Set(0, Faults{MisdirectOn: 2})
	r := in.Reader(0, fs)

	n, err := r.ReadPage(a)
	if err != nil || n.ID != a {
		t.Fatalf("first read: n=%v err=%v", n, err)
	}
	// Second I/O is misdirected: the drive serves the previously read
	// page (a) instead of b.
	_, err = r.ReadPage(b)
	var ie *pagestore.IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("misdirected read: err = %v, want *pagestore.IntegrityError", err)
	}
	if ie.Want != b || ie.Got != a {
		t.Errorf("IntegrityError = %+v, want Want=%d Got=%d", ie, b, a)
	}
	// Subsequent I/Os are healthy again.
	if n, err := r.ReadPage(b); err != nil || n.ID != b {
		t.Errorf("read after misdirection: n=%v err=%v", n, err)
	}
}

// A misdirected first I/O has no history to serve; the injector targets
// the next page id, which may not even exist — an error either way,
// never the wrong node.
func TestInjectorMisdirectFirstIO(t *testing.T) {
	fs := fileStoreOf(t, 1)
	in := NewInjector(2)
	in.Set(0, Faults{MisdirectOn: 1})
	n, err := in.Reader(0, fs).ReadPage(1)
	if err == nil {
		t.Fatalf("misdirected first read succeeded with node %d", n.ID)
	}
}

// fileStoreOf writes one single-entry leaf per id into a page file
// under a fresh directory.
func fileStoreOf(t *testing.T, ids ...rtree.PageID) *pagestore.FileStore {
	t.Helper()
	codec := pagestore.Codec{Dim: 2, PageSize: 4096}
	fs, err := pagestore.OpenFileStore(filepath.Join(t.TempDir(), "drive.pages"), codec, pagestore.FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := fs.Close(); err != nil {
			t.Error(err)
		}
	})
	for _, id := range ids {
		n := &rtree.Node{ID: id}
		x := float64(id)
		n.Entries = append(n.Entries, rtree.LeafEntry(geom.Point{x, x}, rtree.ObjectID(id)))
		buf, err := codec.Encode(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteImage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}
