// Command simquery builds a parallel R*-tree over a data set and runs a
// single k-NN query with any of the paper's algorithms, printing the
// answers, the access statistics and (with -timing) the simulated
// response time on the disk array.
//
// Usage:
//
//	simquery -set california -disks 10 -k 10 -alg crss
//	simquery -file data.bin -disks 5 -k 100 -alg bbss -timing
//	simquery -set gaussian -n 20000 -dim 5 -k 20 -alg all -timing
//
// With -serve it instead exposes the concurrent engine as an HTTP/JSON
// query service (POST /v1/knn) with per-tenant quotas, queue-depth
// admission control and graceful SIGTERM drain:
//
//	simquery -set california -disks 10 -serve :8080 -coalesce -watermark 32 -quota-rate 100
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("simquery: ")

	var (
		set    = flag.String("set", "gaussian", "data set name (see datagen)")
		file   = flag.String("file", "", "load data from a datagen file instead")
		n      = flag.Int("n", 10000, "population for generated sets")
		dim    = flag.Int("dim", 2, "dimensionality for generated sets")
		disks  = flag.Int("disks", 10, "number of disks in the array")
		policy = flag.String("policy", "proximity", "declustering policy")
		k      = flag.Int("k", 10, "number of nearest neighbors")
		alg    = flag.String("alg", "crss", "algorithm: bbss|fpss|crss|woptss|bfss|eps-series|all")
		seed   = flag.Int64("seed", 1, "seed for data, placement and simulation")
		timing = flag.Bool("timing", false, "also simulate the response time on the array")
		sr     = flag.Bool("sr", false, "use the SR-tree access-method variant")
		trace  = flag.Bool("trace", false, "print the algorithm's stage-by-stage trace (CRSS shows its ADAPTIVE/UPDATE/NORMAL/TERMINATE modes)")
		qspec  = flag.String("q", "", "query point as comma-separated coordinates (default: sampled)")
		engine = flag.Bool("engine", false, "also run the query on the real concurrent engine and print its latency snapshot")
		obsFl  = flag.String("obs", "", "serve expvar and pprof debug endpoints on this address (e.g. 127.0.0.1:6060)")

		// Network query service (-serve): expose the concurrent engine
		// over HTTP/JSON instead of running a one-shot query.
		serveFl    = flag.String("serve", "", "serve HTTP/JSON kNN queries on this address (e.g. :8080) instead of running a one-shot query")
		serveCert  = flag.String("serve-cert", "", "TLS certificate file for -serve (with -serve-key)")
		serveKey   = flag.String("serve-key", "", "TLS private key file for -serve")
		quotaRate  = flag.Float64("quota-rate", 0, "per-tenant sustained admission rate in queries/sec (0 = no quotas)")
		quotaBurst = flag.Float64("quota-burst", 0, "per-tenant token-bucket burst (default: quota-rate)")
		watermark  = flag.Int64("watermark", 0, "shed load (429) while any disk's queue depth reaches this (0 = no shedding)")
		sloMs      = flag.Float64("slo-ms", 0, "count served queries slower than this many milliseconds as SLO violations")
		coalesce   = flag.Bool("coalesce", false, "engine/serve mode: merge concurrent fetches of the same page into one disk job")

		// Persistent storage: back the index (and the engine's replicas)
		// with real files instead of memory.
		storeFl = flag.String("store", "mem", "page store: mem (volatile) or file (disk-backed with WAL crash recovery)")
		dataDir = flag.String("data-dir", "", "directory for -store=file; an existing committed tree is recovered instead of rebuilt")

		// Fault injection (engine mode): replicate the page stores and
		// inject deterministic drive failures into the read path.
		mirrors   = flag.Int("mirrors", 1, "physical replicas per engine disk (RAID-1 shadowing when > 1)")
		hedge     = flag.Bool("hedge", false, "hedge slow engine reads against a mirror (needs -mirrors > 1)")
		failDrive = flag.Int("fail-drive", -1, "fail-stop this physical drive (keyed disk*mirrors+mirror; -1 = none)")
		failAfter = flag.Int("fail-after", 0, "with -fail-drive: serve this many I/Os before fail-stopping (0 = dead on arrival)")
		faultP    = flag.Float64("fault-p", 0, "per-I/O transient error probability on every drive")
		spikeP    = flag.Float64("spike-p", 0, "per-I/O latency-spike probability on every drive")
		spikeMs   = flag.Float64("spike-ms", 5, "injected spike duration in milliseconds")
		faultSeed = flag.Int64("fault-seed", 1, "seed for the deterministic fault injector")
	)
	flag.Parse()

	if *obsFl != "" {
		dbg, err := obs.StartDebugServer(*obsFl)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := dbg.Close(); err != nil {
				log.Printf("debug server: %v", err)
			}
		}()
		fmt.Printf("debug server: http://%s/debug/vars (expvar), /debug/pprof (profiles)\n", dbg.Addr())
	}

	pts, err := loadPoints(*file, *set, *n, *dim, *seed)
	if err != nil {
		log.Fatal(err)
	}
	d := pts[0].Dim()

	icfg := core.IndexConfig{
		Dim: d, NumDisks: *disks, Policy: *policy, Seed: *seed, UseSpheres: *sr,
	}
	switch *storeFl {
	case "mem":
	case "file":
		if *dataDir == "" {
			log.Fatal("-store=file requires -data-dir")
		}
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			log.Fatal(err)
		}
		icfg.DataDir = *dataDir
	default:
		log.Fatalf("unknown -store %q (want mem or file)", *storeFl)
	}
	ix, err := core.NewIndex(icfg)
	if err != nil {
		log.Fatal(err)
	}
	defer ix.Close()
	if rec := ix.Recovered(); rec > 0 {
		fmt.Printf("recovered %d committed points from %s\n", rec, *dataDir)
	} else {
		if err := ix.InsertAll(pts, 0); err != nil {
			log.Fatal(err)
		}
		if err := ix.Commit(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("indexed %d points (%d-d) on %d disks, policy %s, %d pages\n",
		ix.Len(), d, *disks, *policy, ix.Tree().Store().Len())
	if icfg.DataDir != "" {
		s := ix.StorageStats()
		fmt.Printf("durable store: %d page writes, %d WAL appends (%d syncs), %d records replayed in %d recoveries\n",
			s.PageWrites, s.WALAppends, s.WALSyncs, s.ReplayedRecords, s.Recoveries)
	}

	// engineCfg assembles the concurrent-engine configuration shared by
	// -engine and -serve: replica stores, optional file backing, and
	// the deterministic fault injector.
	engineCfg := func() (core.EngineConfig, bool) {
		cfg := core.EngineConfig{
			Mirrors: *mirrors, HedgeReads: *hedge, CoalesceFetches: *coalesce,
		}
		if icfg.DataDir != "" {
			// File mode extends to the engine: every replica gets its own
			// on-disk page file under <data-dir>/replicas.
			cfg.DataDir = filepath.Join(*dataDir, "replicas")
			if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
				log.Fatal(err)
			}
		}
		injecting := *failDrive >= 0 || *faultP > 0 || *spikeP > 0
		if injecting {
			inj := core.NewFaultInjector(*faultSeed)
			for drv := 0; drv < *disks*max(*mirrors, 1); drv++ {
				f := core.DriveFaults{Transient: *faultP, SpikeProb: *spikeP,
					SpikeDelay: time.Duration(*spikeMs * float64(time.Millisecond))}
				if drv == *failDrive {
					if *failAfter > 0 {
						f.FailAfter = *failAfter
					} else {
						f.Dead = true
					}
				}
				inj.Set(drv, f)
			}
			cfg.Fault = inj
		}
		return cfg, injecting
	}

	if *serveFl != "" {
		cfg, _ := engineCfg()
		eng, err := ix.NewEngine(cfg)
		if err != nil {
			log.Fatal(err)
		}
		defer eng.Close()
		if *obsFl != "" {
			eng.PublishExpvar("engine")
		}
		srv, err := server.New(server.Config{
			Backend:        eng.Engine,
			QueueWatermark: *watermark,
			QuotaRate:      *quotaRate,
			QuotaBurst:     *quotaBurst,
			SLOTarget:      time.Duration(*sloMs * float64(time.Millisecond)),
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := srv.Start(*serveFl, *serveCert, *serveKey); err != nil {
			log.Fatal(err)
		}
		scheme := "http"
		if *serveCert != "" {
			scheme = "https"
		}
		fmt.Printf("query service: %s://%s/v1/knn (POST), /v1/stats, /healthz\n", scheme, srv.Addr())

		// Serve until SIGINT/SIGTERM, then drain in-flight queries.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		<-ctx.Done()
		fmt.Println("\nshutting down: draining in-flight queries")
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Fatalf("shutdown: %v", err)
		}
		s := eng.Snapshot()
		fmt.Printf("served %d queries (%d pages fetched, %d coalesced); drained cleanly\n",
			s.Stats.Queries, s.Stats.PagesFetched, s.Stats.FetchesCoalesced)
		return
	}

	var q geom.Point
	if *qspec != "" {
		if q, err = parsePoint(*qspec, d); err != nil {
			log.Fatal(err)
		}
	} else {
		q = dataset.SampleQueries(pts, 1, *seed+5)[0]
	}
	fmt.Printf("query: %s, k = %d\n\n", q, *k)

	algs := []string{*alg}
	if *alg == "all" {
		algs = core.Algorithms()
	}
	for _, name := range algs {
		var res []core.Neighbor
		var stats *core.QueryStats
		var err error
		if *trace {
			res, stats, err = ix.KNNTraced(q, *k, name, func(line string) {
				fmt.Printf("    | %s\n", line)
			})
		} else {
			res, stats, err = ix.KNN(q, *k, name)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%s] visited %d nodes in %d parallel batches (max batch %d, CPU %.0f instr)\n",
			name, stats.NodesVisited, stats.Batches, stats.MaxParallel, stats.Instructions)
		for i, r := range res {
			if i >= 5 {
				fmt.Printf("  ... %d more\n", len(res)-5)
				break
			}
			fmt.Printf("  #%d object %d at distance %.6f\n", i+1, r.Object, math.Sqrt(r.DistSq))
		}
		if *timing {
			run, err := ix.Simulate(core.SimulatedWorkload{Algorithm: name, K: *k, Queries: []geom.Point{q}})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  simulated response time: %.4f sec\n", run.MeanResponse)
		}
		fmt.Println()
	}

	if *engine {
		cfg, injecting := engineCfg()
		eng, err := ix.NewEngine(cfg)
		if err != nil {
			log.Fatal(err)
		}
		defer eng.Close()
		if *obsFl != "" {
			eng.PublishExpvar("engine")
		}
		for _, name := range algs {
			if _, _, err := eng.KNN(context.Background(), q, *k, name); err != nil {
				var dataErr *core.ErrDataUnavailable
				if errors.As(err, &dataErr) {
					fmt.Printf("[%s] degraded mode: %v\n", name, dataErr)
					continue
				}
				log.Fatal(err)
			}
		}
		s := eng.Snapshot()
		fmt.Printf("concurrent engine (%d workers): %d queries, %d pages fetched, disk balance ratio %.2f\n",
			eng.NumWorkers(), s.Stats.Queries, s.Stats.PagesFetched, s.BalanceRatio)
		fmt.Printf("  query latency p50/p95/p99: %v / %v / %v\n",
			secs(s.QueryLatency.P50()), secs(s.QueryLatency.P95()), secs(s.QueryLatency.P99()))
		fmt.Printf("  fetch latency p50/p95/p99: %v / %v / %v\n",
			secs(s.FetchLatency.P50()), secs(s.FetchLatency.P95()), secs(s.FetchLatency.P99()))
		if injecting {
			fmt.Printf("  fault path: %d retries, %d redirects, %d hedges (%d won), %d fetch errors, %d replicas degraded\n",
				s.Faults.Retries, s.Faults.Redirects, s.Faults.Hedges, s.Faults.HedgeWins,
				s.Stats.FetchErrors, s.Faults.DisksDegraded)
		}
	}
}

// secs renders a histogram quantile (in seconds) as a duration.
func secs(v float64) time.Duration {
	return time.Duration(v * float64(time.Second)).Round(time.Microsecond)
}

func loadPoints(file, set string, n, dim int, seed int64) ([]geom.Point, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return dataset.Load(f)
	}
	return dataset.ByName(set, n, dim, seed)
}

func parsePoint(spec string, dim int) (geom.Point, error) {
	var p geom.Point
	start := 0
	for i := 0; i <= len(spec); i++ {
		if i == len(spec) || spec[i] == ',' {
			var v float64
			if _, err := fmt.Sscanf(spec[start:i], "%g", &v); err != nil {
				return nil, fmt.Errorf("bad coordinate %q", spec[start:i])
			}
			p = append(p, v)
			start = i + 1
		}
	}
	if p.Dim() != dim {
		return nil, fmt.Errorf("query has %d coordinates, data is %d-d", p.Dim(), dim)
	}
	return p, nil
}
