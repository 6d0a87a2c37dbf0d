// Crash-recovery torture test: run a deterministic insert/delete/
// commit/checkpoint schedule over in-memory block files that lose
// power at a programmed fsync, then reboot from exactly the bytes that
// were durable and require the store to recover a consistent committed
// tree. Every sync point in the schedule gets its own kill, so the
// whole commit and checkpoint protocol is exercised at every durability
// boundary.
//
// The device model: writes land in a volatile cache (the live view)
// and each file drains its own to stable storage in FIFO order. At the
// crash every file — the one whose fsync the power died in and every
// other — keeps a seeded prefix of its un-synced ops, and its frontier
// op may be torn mid-write. Each kill point also runs with every other
// file keeping all of its un-synced ops and with none kept: a protocol
// that syncs its files in the wrong order recovers cleanly only while
// the files it forgot lose their writes. Everything after the crash
// fails with a permanent error, like a dead drive.
//
// The same files fail one operation on a healthy machine for the fault
// sweep: the n-th WriteAt, Sync, Truncate, Size or ReadAt of the
// schedule returns an injected error, once, and the store restarts
// from the bytes the files hold.
package pagestore_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/disk"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/pagestore"
	"repro/internal/parallel"
	"repro/internal/query"
	"repro/internal/rtree"
)

var (
	errCrashed  = errors.New("crash: simulated power loss")
	errInjected = errors.New("fault: injected I/O error")
)

// writeOp is one buffered mutation: a positional write (data non-nil)
// or a truncate (data nil, size the new length).
type writeOp struct {
	off  int64
	data []byte
	size int64
}

// keepMode says how much of its un-synced tail a file keeps at the
// crash.
type keepMode int

const (
	keepSeeded keepMode = iota // a seeded FIFO prefix; the frontier op may be torn
	keepAll                    // every op
	keepNone                   // none
)

// crashEnv is the power supply shared by all files of one store: a
// global fsync counter, the ordinal to kill at, the RNG that picks how
// much of each file's un-synced tail survived, and how much the files
// other than the syncing one keep; and a global operation counter with
// the ordinal of the one operation to fail.
type crashEnv struct {
	mu      sync.Mutex
	rng     *rand.Rand   // picks the durable frontiers at the crash; guarded by mu
	crashAt int          // 1-based sync ordinal to kill at; 0 = never
	others  keepMode     // what the files not being synced keep at the crash
	failAt  int          // 1-based file operation to fail, once; 0 = none
	files   []*crashFile // every file on this supply, in creation order; guarded by mu
	syncs   int          // completed sync points across all files; guarded by mu
	ops     int          // file operations across all files; guarded by mu
	failed  string       // the operation failAt failed, as "file Op"; guarded by mu
	dead    bool         // post-crash: every op fails; guarded by mu
}

// begin counts one operation of f and returns the error it fails with:
// errCrashed once the power is gone, errInjected if it is the one the
// fault sweep fails.
func (e *crashEnv) begin(f *crashFile, op string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead {
		return errCrashed
	}
	e.ops++
	if e.ops == e.failAt {
		e.failed = f.name + " " + op
		return errInjected
	}
	return nil
}

func (e *crashEnv) opCount() (int, string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ops, e.failed
}

func (e *crashEnv) syncCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.syncs
}

// crashFile implements pagestore.BlockFile with separate live and
// durable images. Reads serve the live view (the page cache); only
// Sync moves bytes to the durable image — or, at the kill point, a
// seeded torn prefix of them.
type crashFile struct {
	env     *crashEnv
	name    string
	mu      sync.Mutex
	mem     []byte    // live view; guarded by mu
	durable []byte    // what survives a crash; guarded by mu
	pending []writeOp // un-synced ops in FIFO order; guarded by mu
}

func newCrashFile(env *crashEnv, name string, seed []byte) *crashFile {
	f := &crashFile{env: env, name: name}
	f.mem = append(f.mem, seed...)
	f.durable = append(f.durable, seed...)
	env.mu.Lock()
	env.files = append(env.files, f)
	env.mu.Unlock()
	return f
}

func (f *crashFile) durableBytes() []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]byte(nil), f.durable...)
}

func (f *crashFile) liveBytes() []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]byte(nil), f.mem...)
}

func (f *crashFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.env.begin(f, "ReadAt"); err != nil {
		return 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if off >= int64(len(f.mem)) {
		return 0, io.EOF
	}
	n := copy(p, f.mem[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *crashFile) WriteAt(p []byte, off int64) (int, error) {
	if err := f.env.begin(f, "WriteAt"); err != nil {
		return 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if grow := off + int64(len(p)) - int64(len(f.mem)); grow > 0 {
		f.mem = append(f.mem, make([]byte, grow)...)
	}
	copy(f.mem[off:], p)
	f.pending = append(f.pending, writeOp{off: off, data: append([]byte(nil), p...)})
	return len(p), nil
}

func (f *crashFile) Truncate(size int64) error {
	if err := f.env.begin(f, "Truncate"); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.mem = resize(f.mem, size)
	f.pending = append(f.pending, writeOp{size: size})
	return nil
}

func (f *crashFile) Size() (int64, error) {
	if err := f.env.begin(f, "Size"); err != nil {
		return 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return int64(len(f.mem)), nil
}

func (f *crashFile) Close() error { return nil }

func (f *crashFile) Sync() error {
	if err := f.env.begin(f, "Sync"); err != nil {
		return err
	}
	f.env.mu.Lock()
	f.env.syncs++
	crash := f.env.crashAt > 0 && f.env.syncs == f.env.crashAt
	var rng *rand.Rand
	var files []*crashFile
	if crash {
		f.env.dead = true
		rng, files = f.env.rng, f.env.files
	}
	f.env.mu.Unlock()

	if !crash {
		f.mu.Lock()
		defer f.mu.Unlock()
		for _, op := range f.pending {
			f.applyLocked(op, -1)
		}
		f.pending = nil
		return nil
	}
	// Power loss at this fsync: the file being synced keeps a seeded
	// prefix of its pending ops, then every other file, in creation
	// order, keeps what the environment says.
	f.crash(rng, keepSeeded)
	for _, g := range files {
		if g != f {
			g.crash(rng, f.env.others)
		}
	}
	return errCrashed
}

// crash folds into the durable image the part of the pending ops that
// had drained to the platters when the power died — a FIFO prefix as
// long as keep says — and drops the rest. Under keepSeeded the frontier
// op may be torn mid-write.
func (f *crashFile) crash(rng *rand.Rand, keep keepMode) {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := 0
	switch keep {
	case keepSeeded:
		k = rng.Intn(len(f.pending) + 1)
	case keepAll:
		k = len(f.pending)
	}
	for _, op := range f.pending[:k] {
		f.applyLocked(op, -1)
	}
	if keep == keepSeeded && k < len(f.pending) {
		if op := f.pending[k]; op.data != nil {
			if tear := rng.Intn(len(op.data) + 1); tear > 0 {
				f.applyLocked(op, tear)
			}
		}
	}
	f.pending = nil
}

// applyLocked folds one op into the durable image; tear >= 0 applies
// only the op's first tear bytes. Callers hold f.mu.
func (f *crashFile) applyLocked(op writeOp, tear int) {
	if op.data == nil {
		f.durable = resize(f.durable, op.size)
		return
	}
	data := op.data
	if tear >= 0 && tear < len(data) {
		data = data[:tear]
	}
	if grow := op.off + int64(len(data)) - int64(len(f.durable)); grow > 0 {
		f.durable = append(f.durable, make([]byte, grow)...)
	}
	copy(f.durable[op.off:], data)
}

// resize truncates or zero-extends b to size, like os.File.Truncate.
func resize(b []byte, size int64) []byte {
	if size <= int64(len(b)) {
		return b[:size]
	}
	return append(b, make([]byte, size-int64(len(b)))...)
}

func crashCodec() pagestore.Codec { return pagestore.Codec{Dim: 2, PageSize: 512} }

// crashConfig is the array the schedule's tree is declustered over.
func crashConfig(store rtree.Store) parallel.Config {
	return parallel.Config{
		Dim: 2, NumDisks: 4, Cylinders: disk.HPC2200A().Cylinders,
		MaxEntries: crashCodec().Capacity(1), Seed: 1, Store: store,
	}
}

// crashFiles are the files of one store: the data file, the WAL and
// the two record tables, all on one power supply.
type crashFiles struct {
	data, wal *crashFile
	tables    [2]*crashFile
}

func newCrashFiles(env *crashEnv) crashFiles {
	return crashFiles{newCrashFile(env, "data", nil), newCrashFile(env, "wal", nil),
		[2]*crashFile{newCrashFile(env, "records-0", nil), newCrashFile(env, "records-1", nil)}}
}

// rebooted returns files on a healthy machine holding exactly what was
// durable on f.
func (f crashFiles) rebooted() crashFiles { return f.boot((*crashFile).durableBytes) }

// restarted returns files on a healthy machine holding what f holds
// now: a restart of the process, not of the machine.
func (f crashFiles) restarted() crashFiles { return f.boot((*crashFile).liveBytes) }

func (f crashFiles) boot(bytes func(*crashFile) []byte) crashFiles {
	env := &crashEnv{}
	boot := func(c *crashFile) *crashFile { return newCrashFile(env, c.name, bytes(c)) }
	return crashFiles{boot(f.data), boot(f.wal), [2]*crashFile{boot(f.tables[0]), boot(f.tables[1])}}
}

func (f crashFiles) open(opts pagestore.DurableOptions) (*pagestore.DurableStore, error) {
	return pagestore.OpenDurableOn(f.data, f.wal, [2]pagestore.BlockFile{f.tables[0], f.tables[1]}, crashCodec(), opts)
}

// committedState is what one commit made durable beside the pages:
// every live page's placement and the state record.
type committedState struct {
	placements map[rtree.PageID]parallel.Placement
	state      []byte
}

func stateOf(pt *parallel.Tree, ds *pagestore.DurableStore) committedState {
	c := committedState{placements: make(map[rtree.PageID]parallel.Placement), state: ds.State()}
	pt.Walk(func(n *rtree.Node, _ int) bool {
		c.placements[n.ID], _ = pt.Placement(n.ID)
		return true
	})
	return c
}

// objSet is a recovered or expected object population.
type objSet map[rtree.ObjectID]geom.Point

func (s objSet) clone() objSet {
	c := make(objSet, len(s))
	for id, p := range s {
		c[id] = p
	}
	return c
}

func (s objSet) equal(o objSet) bool {
	if len(s) != len(o) {
		return false
	}
	for id := range s {
		if _, ok := o[id]; !ok {
			return false
		}
	}
	return true
}

// schedResult is the ground truth the recovered store is checked
// against: the object set as of the last durable-acknowledged Commit,
// plus — when the crash or fault hit inside a Commit — the set that
// commit was trying to make durable. Recovery must land on one of the
// two (whether the commit record made it to the platters is exactly the
// bit the crash tears).
type schedResult struct {
	committed objSet
	inflight  objSet // non-nil only when the schedule stopped inside Commit
	stopped   bool   // a crash or an injected fault stopped the schedule
	// states holds, per acknowledged Commit in order, the placements and
	// state record it made durable.
	states []committedState
}

// runCrashSchedule drives a fixed, seeded insert/delete workload over a
// declustered tree in a DurableStore on the given files: a Commit every
// 7 ops, checkpoints a third and two thirds of the way in, and a final
// Commit; then it closes the store, reopens it, checkpoints the log's
// tail and reads every page back from the data file, the way a replica
// serves it. The schedule is identical on every run; only the kill
// point or the failed operation differs, and the first error stops it.
func runCrashSchedule(t *testing.T, files crashFiles) schedResult {
	t.Helper()
	const (
		ops         = 160
		commitEvery = 7
	)
	committed := make(objSet)
	var states []committedState
	stopped := func(err error) schedResult {
		if !errors.Is(err, errCrashed) && !errors.Is(err, errInjected) {
			t.Fatalf("schedule failed with an error no crash or fault caused: %v", err)
		}
		return schedResult{committed: committed, stopped: true, states: states}
	}

	ds, err := files.open(pagestore.DurableOptions{})
	if err != nil {
		return stopped(err)
	}
	tr, err := parallel.New(crashConfig(ds))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(424242)) // workload seed, fixed across kill points
	live := make(objSet)
	var liveIDs []rtree.ObjectID

	for i := 0; i < ops; i++ {
		if i%5 == 3 && len(liveIDs) > 20 {
			// The westmost object: the deletes empty the same leaves,
			// and a checkpoint zeroes the slots they free.
			j := 0
			for k, id := range liveIDs {
				if live[id][0] < live[liveIDs[j]][0] {
					j = k
				}
			}
			id := liveIDs[j]
			if !tr.DeletePoint(live[id], id) {
				t.Fatalf("op %d: delete of live object %d failed", i, id)
			}
			delete(live, id)
			liveIDs[j] = liveIDs[len(liveIDs)-1]
			liveIDs = liveIDs[:len(liveIDs)-1]
		} else {
			p := geom.Point{rng.Float64() * 1000, rng.Float64() * 1000}
			id := rtree.ObjectID(i)
			if err := tr.InsertPoint(p, id); err != nil {
				t.Fatal(err)
			}
			live[id] = p
			liveIDs = append(liveIDs, id)
		}
		if i%commitEvery == commitEvery-1 {
			inflight := live.clone()
			if err := tr.Commit(ds); err != nil {
				res := stopped(err)
				res.inflight = inflight
				return res
			}
			committed = inflight
			states = append(states, stateOf(tr, ds))
		}
		if i == ops/3 || i == 2*ops/3 {
			if err := ds.Checkpoint(); err != nil {
				return stopped(err)
			}
		}
	}
	inflight := live.clone()
	if err := tr.Commit(ds); err != nil {
		res := stopped(err)
		res.inflight = inflight
		return res
	}
	committed = inflight
	states = append(states, stateOf(tr, ds))

	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if ds, err = files.open(pagestore.DurableOptions{}); err != nil {
		return stopped(err)
	}
	if err := ds.Checkpoint(); err != nil {
		return stopped(err)
	}
	// The reopened store holds tr's pages: every one is in the data file
	// now.
	pages := pagestore.FileStoreOn(files.data, crashCodec())
	var readErr error
	tr.Walk(func(n *rtree.Node, _ int) bool {
		f, err := pages.ReadPage(n.ID)
		if err != nil {
			readErr = err
			return false
		}
		if f.ID != n.ID || f.Len() != len(n.Entries) {
			t.Fatalf("page %d read back as page %d of %d entries, want %d", n.ID, f.ID, f.Len(), len(n.Entries))
		}
		return true
	})
	if readErr != nil {
		return stopped(readErr)
	}
	return schedResult{committed: committed, states: states}
}

// recoverAndCheck opens the store on files, which a reboot or a restart
// left, and runs the full gauntlet: open must succeed, the tree must
// restore with clean invariants and a bitwise shadow, the recovered
// object set must be one of the two legal states, every page's
// placement and the state record must be what the same commit made
// durable on a run that never crashed (ref), and the concurrent engine
// must agree with the serial driver on the recovered tree, bit for bit.
func recoverAndCheck(t *testing.T, res schedResult, files crashFiles, ref []committedState, counters *obs.StorageCounters) {
	t.Helper()
	codec := crashCodec()
	ds, err := files.open(pagestore.DurableOptions{Counters: counters})
	if err != nil {
		t.Fatalf("recovery open failed: %v", err)
	}
	defer ds.Close()
	if err := ds.VerifyShadow(); err != nil {
		t.Fatalf("recovered shadow mismatch: %v", err)
	}

	meta := ds.Meta()
	got := make(objSet)
	if meta.Root != 0 {
		rcfg := rtree.Config{Dim: 2, MaxEntries: codec.Capacity(1)}
		tr, err := rtree.Restore(rcfg, ds, meta.Root, meta.Size)
		if err != nil {
			t.Fatalf("restore of recovered tree failed: %v", err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("recovered tree violates invariants: %v", err)
		}
		tr.Walk(func(n *rtree.Node, _ int) bool {
			if n.IsLeaf() {
				for _, e := range n.Entries {
					got[e.Object] = geom.Point(nil)
				}
			}
			return true
		})
	}
	if len(got) != meta.Size {
		t.Fatalf("recovered tree holds %d objects, the recovered commit metadata says %d", len(got), meta.Size)
	}
	commits := len(res.states)
	switch {
	case got.equal(res.committed):
	case res.inflight != nil && got.equal(res.inflight):
		commits++
	default:
		t.Fatalf("recovered %d objects; want the last committed set (%d) or the in-flight commit (%d)",
			len(got), len(res.committed), len(res.inflight))
	}
	if len(got) == 0 {
		return
	}

	pt, err := parallel.Open(crashConfig(nil), ds)
	if err != nil {
		t.Fatalf("opening recovered tree: %v", err)
	}
	want := ref[commits-1]
	have := stateOf(pt, ds)
	if !maps.Equal(have.placements, want.placements) {
		t.Fatalf("commit %d: recovered placements differ from the ones it made durable", commits)
	}
	if !bytes.Equal(have.state, want.state) {
		t.Fatalf("commit %d: recovered state record %x, committed %x", commits, have.state, want.state)
	}
	// The restored tree encodes the same state again.
	if err := pt.Commit(ds); err != nil {
		t.Fatal(err)
	}
	if again := ds.State(); !bytes.Equal(again, want.state) {
		t.Fatalf("commit %d: the recovered tree commits state %x, the original %x", commits, again, want.state)
	}

	// Driver/engine parity on the recovered tree: the concurrent engine
	// must answer bit-identically to the serial driver.
	eng, err := exec.New(pt, exec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	drv := query.Driver{Tree: pt}
	k := 10
	if k > meta.Size {
		k = meta.Size
	}
	for _, q := range []geom.Point{{100, 900}, {500, 500}, {900, 100}} {
		want, _ := drv.Run(query.CRSS{}, q, k, query.Options{})
		have, _, err := eng.KNN(context.Background(), query.CRSS{}, q, k, query.Options{})
		if err != nil {
			t.Fatalf("engine query on recovered tree: %v", err)
		}
		if len(want) != len(have) {
			t.Fatalf("driver found %d neighbors, engine %d", len(want), len(have))
		}
		for i := range want {
			if want[i].Object != have[i].Object ||
				math.Float64bits(want[i].DistSq) != math.Float64bits(have[i].DistSq) {
				t.Fatalf("neighbor %d differs: driver %v/%x, engine %v/%x", i,
					want[i].Object, math.Float64bits(want[i].DistSq),
					have[i].Object, math.Float64bits(have[i].DistSq))
			}
		}
	}
}

// TestCrashRecoveryTorture kills the store at every fsync in the
// schedule (every fourth under -short), three times each — the files
// not being synced keeping a seeded prefix of their un-synced ops, all
// of them, none — and requires full recovery from each. The dry run
// both counts the sync points and checks the no-crash baseline.
func TestCrashRecoveryTorture(t *testing.T) {
	env := &crashEnv{}
	files := newCrashFiles(env)
	res := runCrashSchedule(t, files)
	if res.stopped {
		t.Fatal("dry run crashed")
	}
	total := env.syncCount()
	if total < 10 {
		t.Fatalf("schedule produced only %d sync points — not much of a torture", total)
	}
	ref := res.states
	recoverAndCheck(t, res, files.rebooted(), ref, nil)

	step := 1
	if testing.Short() {
		step = 4
	}
	var recoveries, replayed atomic.Uint64
	for kill := 1; kill <= total; kill += step {
		kill := kill
		t.Run(fmt.Sprintf("kill=%02d", kill), func(t *testing.T) {
			t.Parallel()
			for _, others := range []struct {
				name string
				keep keepMode
			}{{"seeded", keepSeeded}, {"others-keep-all", keepAll}, {"others-keep-none", keepNone}} {
				others := others
				t.Run(others.name, func(t *testing.T) {
					t.Parallel()
					env := &crashEnv{crashAt: kill, others: others.keep, rng: rand.New(rand.NewSource(int64(9000 + kill)))}
					files := newCrashFiles(env)
					res := runCrashSchedule(t, files)
					if !res.stopped {
						t.Fatalf("schedule survived kill point %d of %d", kill, total)
					}
					var counters obs.StorageCounters
					recoverAndCheck(t, res, files.rebooted(), ref, &counters)
					s := counters.Snapshot()
					recoveries.Add(s.Recoveries)
					replayed.Add(s.ReplayedRecords)
				})
			}
		})
	}
	t.Cleanup(func() {
		if recoveries.Load() == 0 || replayed.Load() == 0 {
			t.Errorf("no kill point exercised WAL replay (recoveries=%d, replayed=%d)",
				recoveries.Load(), replayed.Load())
		}
	})
}

// A second, harsher sweep: crash the recovered machine a second time by
// re-running the tail of the schedule is out of scope, but double-crash
// DURING RECOVERY is not — the heal writes and torn-tail truncation
// recovery performs must themselves be crash-safe. Recovery performs no
// syncs, so the durable images are untouched: recovering twice from the
// same images must give the same answer.
func TestCrashRecoveryIsRepeatable(t *testing.T) {
	ref := runCrashSchedule(t, newCrashFiles(&crashEnv{})).states
	env := &crashEnv{crashAt: 7, rng: rand.New(rand.NewSource(77))}
	files := newCrashFiles(env)
	res := runCrashSchedule(t, files)
	if !res.stopped {
		t.Skip("schedule has fewer than 7 sync points")
	}
	for i := 0; i < 3; i++ {
		recoverAndCheck(t, res, files.rebooted(), ref, nil)
	}
}

// TestFaultSweep fails each file operation of the schedule in turn —
// every WriteAt, Sync, Truncate, Size and ReadAt on the four files, one
// per run, once — and requires the call in flight to return the
// injected error, and a restart on the same files to recover the last
// acknowledged commit: or the batch of the commit in flight when the
// failed operation was its WAL sync, which leaves the batch in the log.
// A storage error dropped anywhere on the way shows here as a schedule
// that runs through its fault, a stray error, or a recovery that finds
// another tree.
func TestFaultSweep(t *testing.T) {
	env := &crashEnv{}
	dry := runCrashSchedule(t, newCrashFiles(env))
	if dry.stopped {
		t.Fatal("dry run failed")
	}
	total, _ := env.opCount()
	for n := 1; n <= total; n++ {
		t.Run(fmt.Sprintf("op=%03d", n), func(t *testing.T) {
			t.Parallel()
			env := &crashEnv{failAt: n}
			files := newCrashFiles(env)
			res := runCrashSchedule(t, files)
			_, failed := env.opCount()
			if !res.stopped {
				t.Fatalf("the schedule ran through the failed %s: its error was dropped", failed)
			}
			if res.inflight != nil && failed != "wal Sync" {
				res.inflight = nil
			}
			t.Logf("failed %s", failed)
			recoverAndCheck(t, res, files.restarted(), dry.states, nil)
		})
	}
}
