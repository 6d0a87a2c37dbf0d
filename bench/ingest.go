package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/pagestore"
)

// ingestLog is what running the mutation script produced.
type ingestLog struct {
	mutations     int // attempted, failed deletes among them
	failedDeletes int
	commits       int
	reads         []time.Duration // the interleaved Index.KNN calls that succeeded
	failedReads   int
	wall          time.Duration // script start to the last Commit
	walBytes      int64         // wal.log sizes summed before every Checkpoint and at Close
	storage       obs.StorageSnapshot
	mem           [2]runtime.MemStats // before, after
}

// ops is every operation the script attempted, each once.
func (l *ingestLog) ops() int { return l.mutations + len(l.reads) + l.failedReads }

func (l *ingestLog) failed() int { return l.failedDeletes + l.failedReads }

func walSize(dir string) (int64, error) {
	fi, err := os.Stat(filepath.Join(dir, pagestore.WALFileName))
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// runScript applies the first len(script) batches to the index: per
// batch its mutations, a Commit, readsPerCommit kNN reads, and after
// every checkpointEvery-th commit a Checkpoint. One client, no timers:
// the storage counts repeat exactly for a seed. With a tracer every
// call is a span under root.
func runScript(s *system, script [][]mutation, tr *tracer, root int) (*ingestLog, error) {
	ix, in := s.index, s.in
	log := &ingestLog{reads: make([]time.Duration, 0, len(script)*readsPerCommit)}
	storageBefore := ix.StorageStats()
	runtime.ReadMemStats(&log.mem[0])
	start := time.Now()
	nextQuery := 0
	for b, batch := range script {
		for _, m := range batch {
			t := tr.begin()
			if m.del {
				if !ix.Delete(in.points[m.id], core.ObjectID(m.id)) {
					log.failedDeletes++
				}
				tr.end("rtree.delete", root, -1, t)
			} else {
				if err := ix.Insert(in.points[m.id], core.ObjectID(m.id)); err != nil {
					return nil, err
				}
				tr.end("rtree.insert", root, -1, t)
			}
			log.mutations++
		}
		t := tr.begin()
		if err := ix.Commit(); err != nil {
			return nil, err
		}
		tr.end("pagestore.commit", root, -1, t)
		log.commits++
		log.wall = time.Since(start)
		for r := 0; r < readsPerCommit; r++ {
			qi := nextQuery % len(in.queries)
			nextQuery++
			t := time.Now()
			ns, _, err := ix.KNN(in.queries[qi], knnK, algorithm)
			d := time.Since(t)
			if err != nil || len(ns) != knnK {
				log.failedReads++
				continue
			}
			log.reads = append(log.reads, d)
			if tr != nil {
				tr.add("query.knn", root, qi, t, t.Add(d))
			}
		}
		if (b+1)%checkpointEvery == 0 {
			n, err := walSize(s.dir)
			if err != nil {
				return nil, err
			}
			log.walBytes += n
			t := tr.begin()
			if err := ix.Checkpoint(); err != nil {
				return nil, err
			}
			tr.end("pagestore.checkpoint", root, -1, t)
		}
	}
	runtime.ReadMemStats(&log.mem[1])
	n, err := walSize(s.dir)
	if err != nil {
		return nil, err
	}
	log.walBytes += n
	log.storage = ix.StorageStats().Sub(storageBefore)
	return log, nil
}

// survivors returns the object ids alive after the script's first
// batches, ascending, and their points.
func survivors(w workload, in inputs, batches int) ([]int, []geom.Point) {
	alive := make(map[int]bool, w.points+batches*batchInserts)
	for i := 0; i < w.points; i++ {
		alive[i] = true
	}
	for _, batch := range in.script[:batches] {
		for _, m := range batch {
			if m.del {
				delete(alive, m.id)
			} else {
				alive[m.id] = true
			}
		}
	}
	ids := make([]int, 0, len(alive))
	for id := range alive {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	pts := make([]geom.Point, len(ids))
	for i, id := range ids {
		pts[i] = in.points[id]
	}
	return ids, pts
}

// reopenAndVerify closes the index with an un-checkpointed WAL tail,
// reopens it reopens times (each open replays the tail; the durations
// are returned) and checks the last one: recovered count, invariants,
// and ingestVerifyReads answers against brute force over the survivors.
// It returns the checks attempted and failed.
func reopenAndVerify(s *system, batches, reopens int, tr *tracer, root int) (recoveries []time.Duration, attempted, failed int, err error) {
	if err := s.index.Close(); err != nil {
		return nil, 0, 0, err
	}
	s.index = nil
	cfg := core.IndexConfig{Dim: s.w.dim, NumDisks: numDisks, DataDir: s.dir}
	for i := 0; i < reopens; i++ {
		if s.index != nil {
			if err := s.index.Close(); err != nil {
				return nil, 0, 0, err
			}
		}
		start := time.Now()
		s.index, err = core.NewIndex(cfg)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("reopen: %w", err)
		}
		recoveries = append(recoveries, time.Since(start))
		if tr != nil {
			tr.add("pagestore.recover", root, -1, start, start.Add(recoveries[i]))
		}
	}
	ids, pts := survivors(s.w, s.in, batches)
	attempted = 2
	if s.index.Recovered() != len(ids) {
		failed++
	}
	if err := s.index.Check(); err != nil {
		failed++
	}
	for i := 0; i < ingestVerifyReads; i++ {
		q := s.in.queries[i%len(s.in.queries)]
		attempted++
		ns, _, err := s.index.KNN(q, knnK, algorithm)
		if err != nil || !sameAnswer(fromQuery(ns), truth(pts, ids, q)) {
			failed++
		}
	}
	return recoveries, attempted, failed, nil
}

// measureIngest runs the whole script untraced and fills in the
// end-to-end metrics of ingest-mixed.
func measureIngest(s *system, res *runResult) error {
	log, err := runScript(s, s.in.script, nil, -1)
	if err != nil {
		return err
	}
	_, checks, wrong, err := reopenAndVerify(s, len(s.in.script), 1, nil, -1)
	if err != nil {
		return err
	}
	if len(log.reads) == 0 {
		return fmt.Errorf("%s: no read succeeded", s.w.name)
	}
	ops := log.ops()
	res.Attempted = ops + checks
	res.Failed = log.failed() + wrong
	res.notef("after reopen: %d checks (recovered count, invariants, %d answers against brute force), %d failed",
		checks, ingestVerifyReads, wrong)

	// One read in readsPerCommit follows every batch, so the read rate is
	// the mutation rate times a constant: both move together.
	res.setN("queries_per_s", float64(len(log.reads))/log.wall.Seconds(), "1/s", len(log.reads))
	res.setN("mutations_per_s", float64(log.mutations)/log.wall.Seconds(), "1/s", log.mutations)
	res.setLatency("query_p50_us", "query_p99_us", "us", withFailures(durationsToMicros(log.reads), log.failedReads))
	res.set("allocs_per_op", float64(log.mem[1].Mallocs-log.mem[0].Mallocs)/float64(ops), "1/op")
	res.set("bytes_per_op", float64(log.mem[1].TotalAlloc-log.mem[0].TotalAlloc)/float64(ops), "B/op")
	res.set("write_amp", writeAmp(s.w, log), "ratio")
	return nil
}

// writeAmp is bytes written to storage per byte of user data: WAL bytes
// plus page writes over mutations times the size of a point and its id.
func writeAmp(w workload, log *ingestLog) float64 {
	const pageSize = 4096 // core.IndexConfig's default
	written := float64(log.walBytes) + float64(log.storage.PageWrites)*pageSize
	return written / (float64(log.mutations) * float64(8*w.dim+8))
}
