// Package simarray is the full system simulator of the paper (§4.1,
// Figure 7): a CPU, a shared I/O bus and N disks, each modelled as a
// FCFS queue over the event-driven kernel of package sim. Queries arrive
// in a Poisson stream, run one of the package query algorithms, and the
// simulator measures per-query response times under intra- and
// inter-query parallelism, seek-dependent disk service times, bus
// contention and the paper's CPU cost model.
//
// The flow of one algorithm stage is:
//
//	CPU (process previous pages: 2N+3M·log2 M instructions @ MIPS)
//	  → page requests fan out to the per-disk queues (parallel)
//	  → each completed page crosses the shared bus (constant time)
//	  → when the stage's last page arrives, the next stage begins.
package simarray

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/query"
	"repro/internal/rtree"
	"repro/internal/sim"
)

// Config fixes the hardware model. Zero fields take the paper's values
// (Table 1 and Table 2).
type Config struct {
	Disk         disk.Params // per-drive model; zero value = HP C2200A
	MIPS         float64     // CPU speed; default 100 (CPUspeed, Table 1)
	QueryStartup float64     // seconds; default 0.001 (Qstartup, Table 1)
	BusTime      float64     // seconds to move one page over the bus;
	// default = page size / 10 MB/s (SCSI-2)
	Seed int64
	// Mirrors is the number of physical copies of every logical disk:
	// 1 (default) models the paper's RAID-0; 2 models RAID-1 shadowed
	// disks, the paper's "future research" item — a read is served by
	// whichever mirror the MirrorPolicy selects.
	Mirrors int
	// MirrorPolicy selects the mirror for a read: "shortest-queue"
	// (default; falls back to the nearer arm on ties), "nearest-arm",
	// or "roundrobin".
	MirrorPolicy string
	// CPUs is the number of processors sharing the workload (default
	// 1, the paper's machine). More processors model the paper's last
	// future-research item, "the impact of increasing the number of
	// processors (e.g. in a shared-memory multiprocessor architecture)":
	// each query stage runs on the least-loaded CPU.
	CPUs int
	// Faults fail-stops physical drives during the run: pickMirror
	// skips dead drives, and a read with no live replica fails its
	// query with *fault.ErrDataUnavailable instead of a wrong answer.
	Faults []DriveFault
}

// DriveFault fail-stops one physical drive. Faults affect the query
// read path only; insert traffic (RunMixed) is charged to mirror 0
// regardless, since writes must eventually hit every mirror anyway.
type DriveFault struct {
	Disk   int // logical disk
	Mirror int // physical mirror of that disk (0 when Mirrors == 1)
	// AfterIOs is how many page reads the drive serves before it
	// fail-stops; 0 means dead on arrival. A supernode's streamed
	// extra pages count as part of their request's single I/O.
	AfterIOs int
}

func (c *Config) fill() {
	if c.Disk.Cylinders == 0 {
		c.Disk = disk.HPC2200A()
	}
	if c.MIPS == 0 {
		c.MIPS = 100
	}
	if c.QueryStartup == 0 {
		c.QueryStartup = 0.001
	}
	if c.BusTime == 0 {
		c.BusTime = float64(c.Disk.BlockSize) / 10e6
	}
	if c.Mirrors == 0 {
		c.Mirrors = 1
	}
	if c.MirrorPolicy == "" {
		c.MirrorPolicy = "shortest-queue"
	}
	if c.CPUs == 0 {
		c.CPUs = 1
	}
}

// Workload describes a stream of k-NN queries.
type Workload struct {
	Algorithm query.Algorithm
	K         int
	Queries   []geom.Point // one query per arrival
	// ArrivalRate is λ in queries/second for the Poisson stream; if
	// zero, queries are issued back-to-back (each arrives when the
	// previous completes — the single-user model).
	ArrivalRate float64
	Options     query.Options
}

// QueryOutcome is the record of one simulated query.
type QueryOutcome struct {
	Index      int
	Arrival    float64
	Completion float64
	Response   float64
	Stats      *query.Stats
	Results    []query.Neighbor
	// Err is non-nil when the query failed in degraded mode (typically
	// *fault.ErrDataUnavailable: a page had no live replica). A failed
	// query has nil Stats and Results — never a partial answer.
	Err error
}

// DiskReport summarizes one drive after a run.
type DiskReport struct {
	Requests    uint64
	Utilization float64
	MeanWait    float64
}

// RunResult aggregates a workload run. Response-time aggregates cover
// successful queries only; Failed counts the rest.
type RunResult struct {
	Outcomes     []QueryOutcome
	MeanResponse float64
	MaxResponse  float64
	Makespan     float64 // completion time of the last query
	Failed       int     // queries that ended with QueryOutcome.Err
	Disks        []DiskReport
	BusUtil      float64
	CPUUtil      float64
}

// System wires a parallel R*-tree to the simulated hardware. With
// Mirrors > 1 each logical disk is backed by that many physical drives
// holding identical content (RAID-1 shadowing).
type System struct {
	cfg    Config
	tree   *parallel.Tree
	sim    *sim.Simulator
	cpus   []*sim.Station
	bus    *sim.Station
	disks  [][]*sim.Station // [logical disk][mirror]
	drive  [][]*disk.Drive
	rot    []*rand.Rand // per-logical-disk rotational latency streams
	rrNext []int        // round-robin cursor per logical disk
	// failAfter[d][m] is the drive's read budget before it fail-stops
	// (-1 = never); served[d][m] counts reads issued to it so far.
	failAfter [][]int
	served    [][]int
}

// NewSystem builds the hardware around a tree. The number of disks comes
// from the tree's configuration.
func NewSystem(tree *parallel.Tree, cfg Config) (*System, error) {
	cfg.fill()
	if err := cfg.Disk.Validate(); err != nil {
		return nil, err
	}
	if tree.Config().Cylinders > cfg.Disk.Cylinders {
		return nil, fmt.Errorf("simarray: tree placed on %d cylinders but drive has %d",
			tree.Config().Cylinders, cfg.Disk.Cylinders)
	}
	switch cfg.MirrorPolicy {
	case "shortest-queue", "nearest-arm", "roundrobin":
	default:
		return nil, fmt.Errorf("simarray: unknown mirror policy %q", cfg.MirrorPolicy)
	}
	if cfg.Mirrors < 1 {
		return nil, fmt.Errorf("simarray: mirrors must be >= 1, got %d", cfg.Mirrors)
	}
	if cfg.CPUs < 1 {
		return nil, fmt.Errorf("simarray: CPUs must be >= 1, got %d", cfg.CPUs)
	}
	s := &System{cfg: cfg, tree: tree, sim: sim.New()}
	s.cpus = make([]*sim.Station, cfg.CPUs)
	for i := range s.cpus {
		s.cpus[i] = sim.NewStation(s.sim)
	}
	s.bus = sim.NewStation(s.sim)
	n := tree.NumDisks()
	s.disks = make([][]*sim.Station, n)
	s.drive = make([][]*disk.Drive, n)
	s.rot = make([]*rand.Rand, n)
	s.rrNext = make([]int, n)
	for i := 0; i < n; i++ {
		s.disks[i] = make([]*sim.Station, cfg.Mirrors)
		s.drive[i] = make([]*disk.Drive, cfg.Mirrors)
		for m := 0; m < cfg.Mirrors; m++ {
			s.disks[i][m] = sim.NewStation(s.sim)
			d, err := disk.NewDrive(i*cfg.Mirrors+m, cfg.Disk)
			if err != nil {
				return nil, err
			}
			s.drive[i][m] = d
		}
		s.rot[i] = rand.New(rand.NewSource(cfg.Seed + int64(i)*7919 + 1))
	}
	s.failAfter = make([][]int, n)
	s.served = make([][]int, n)
	for i := 0; i < n; i++ {
		s.failAfter[i] = make([]int, cfg.Mirrors)
		s.served[i] = make([]int, cfg.Mirrors)
		for m := range s.failAfter[i] {
			s.failAfter[i][m] = -1
		}
	}
	for _, f := range cfg.Faults {
		if f.Disk < 0 || f.Disk >= n || f.Mirror < 0 || f.Mirror >= cfg.Mirrors {
			return nil, fmt.Errorf("simarray: fault targets drive %d.%d outside the %dx%d array",
				f.Disk, f.Mirror, n, cfg.Mirrors)
		}
		s.failAfter[f.Disk][f.Mirror] = f.AfterIOs
	}
	return s, nil
}

// driveDead reports whether a physical drive has fail-stopped.
func (s *System) driveDead(d, m int) bool {
	fa := s.failAfter[d][m]
	return fa >= 0 && s.served[d][m] >= fa
}

// pickMirror selects the physical drive serving a read from logical
// disk d at the given cylinder, per the configured policy. Dead drives
// are skipped; ok is false when no live mirror remains, in which case
// the read cannot be served (RAID-0 data loss, or a fully dead mirror
// set).
func (s *System) pickMirror(d, cylinder int) (m int, ok bool) {
	if s.cfg.Mirrors == 1 {
		return 0, !s.driveDead(d, 0)
	}
	switch s.cfg.MirrorPolicy {
	case "roundrobin":
		// Advance the cursor past dead drives so the live ones still
		// alternate.
		for i := 0; i < s.cfg.Mirrors; i++ {
			m := s.rrNext[d]
			s.rrNext[d] = (m + 1) % s.cfg.Mirrors
			if !s.driveDead(d, m) {
				return m, true
			}
		}
		return 0, false
	case "nearest-arm":
		best, bestDist := -1, -1
		for m, drv := range s.drive[d] {
			if s.driveDead(d, m) {
				continue
			}
			dist := armDist(drv, cylinder)
			if bestDist < 0 || dist < bestDist {
				best, bestDist = m, dist
			}
		}
		if best < 0 {
			return 0, false
		}
		return best, true
	default: // shortest-queue, ties to the nearer arm
		best, bestDist := -1, 0
		bestFree := 0.0
		for m := 0; m < s.cfg.Mirrors; m++ {
			if s.driveDead(d, m) {
				continue
			}
			free := s.disks[d][m].FreeAt()
			dist := armDist(s.drive[d][m], cylinder)
			//lint:allow floatcmp exact free-time tie deliberately broken by the nearer arm
			if best < 0 || free < bestFree || (free == bestFree && dist < bestDist) {
				best, bestFree, bestDist = m, free, dist
			}
		}
		if best < 0 {
			return 0, false
		}
		return best, true
	}
}

func armDist(d *disk.Drive, cylinder int) int {
	dist := d.Arm() - cylinder
	if dist < 0 {
		dist = -dist
	}
	return dist
}

// cpu returns the least-loaded processor (by drain time), modelling a
// shared ready queue on a multiprocessor.
func (s *System) cpu() *sim.Station {
	best := s.cpus[0]
	for _, c := range s.cpus[1:] {
		if c.FreeAt() < best.FreeAt() {
			best = c
		}
	}
	return best
}

// queryProc drives one Execution through the simulated hardware.
type queryProc struct {
	sys     *System
	exec    query.Execution
	out     *QueryOutcome
	pending int
	// batch collects the stage's pages in request order, whatever order
	// they arrive in; the execution reads it only during the Step that
	// follows, so it is reused from stage to stage.
	batch []*rtree.FlatNode
	done  func()
	// obsv receives FetchDone/StageDone events stamped with the
	// virtual clock; stage and arrivals support request-order emission.
	obsv     obs.QueryObserver
	stage    int
	arrivals []fetchArrival
	// failed stops the query's remaining simulated events once a read
	// had no live replica; late page arrivals are discarded.
	failed bool
}

// fetchArrival records one page's simulated completion for the trace.
type fetchArrival struct {
	req query.PageRequest
	idx int
	at  float64
}

// start begins the query at the current simulated time: the startup cost
// runs on the CPU, then the first stage executes.
func (p *queryProc) start() {
	p.out.Arrival = p.sys.sim.Now()
	p.sys.cpu().Submit(p.sys.cfg.QueryStartup, func(_, _ float64) {
		p.advance(nil)
	})
}

// advance runs one algorithm stage: Step consumes the delivered pages,
// its CPU cost is paid on the CPU station, and then the stage's page
// requests fan out to the disks.
func (p *queryProc) advance(delivered []*rtree.FlatNode) {
	if p.failed {
		return
	}
	sr := p.exec.Step(delivered)
	cpuTime := sr.Instructions / (p.sys.cfg.MIPS * 1e6)
	p.sys.cpu().Submit(cpuTime, func(_, _ float64) {
		if len(sr.Requests) == 0 {
			p.finish()
			return
		}
		p.issue(sr.Requests)
	})
}

// issue sends a stage's page requests to the array. Cached pages cost no
// I/O; physical pages pay disk service (seek + rotation + transfer +
// controller) and then one bus slot.
func (p *queryProc) issue(reqs []query.PageRequest) {
	p.pending = len(reqs)
	if cap(p.batch) < len(reqs) {
		p.batch = make([]*rtree.FlatNode, len(reqs))
	}
	p.batch = p.batch[:len(reqs)]
	for i, r := range reqs {
		i, r := i, r
		node := p.sys.tree.Store().Get(r.Page).Flat()
		if r.Cached {
			// Delivered from memory at this instant.
			p.sys.sim.After(0, func() { p.deliver(node, i, r) })
			continue
		}
		m, ok := p.sys.pickMirror(r.Disk, r.Cylinder)
		if !ok {
			p.fail(&fault.ErrDataUnavailable{Disk: r.Disk, Page: r.Page, Last: fault.ErrDiskDead})
			return
		}
		p.sys.served[r.Disk][m]++
		drv := p.sys.drive[r.Disk][m]
		svc := drv.ServiceTime(r.Cylinder, p.sys.rot[r.Disk])
		if r.Pages > 1 {
			// Supernode: the extra pages stream sequentially after the
			// first (one seek + rotation, then contiguous transfers).
			svc += float64(r.Pages-1) * drv.TransferTime
		}
		p.sys.disks[r.Disk][m].Submit(svc, func(_, _ float64) {
			p.sys.bus.Submit(p.sys.cfg.BusTime, func(_, _ float64) {
				p.deliver(node, i, r)
			})
		})
	}
}

// deliver collects one page at its request's position; when the whole
// stage has arrived its trace events are emitted in request order and
// the next stage begins.
func (p *queryProc) deliver(n *rtree.FlatNode, idx int, r query.PageRequest) {
	if p.failed {
		return
	}
	if p.obsv != nil {
		p.arrivals = append(p.arrivals, fetchArrival{req: r, idx: idx, at: p.sys.sim.Now()})
	}
	p.batch[idx] = n
	p.pending--
	if p.pending == 0 {
		if p.obsv != nil {
			sort.Slice(p.arrivals, func(a, b int) bool { return p.arrivals[a].idx < p.arrivals[b].idx })
			for _, ar := range p.arrivals {
				p.obsv.Observe(obs.Event{
					Type: obs.FetchDone, Stage: p.stage,
					Page: int64(ar.req.Page), Disk: ar.req.Disk, Pages: ar.req.Pages,
					Cached: ar.req.Cached, SimTime: ar.at,
				})
			}
			p.obsv.Observe(obs.Event{
				Type: obs.StageDone, Stage: p.stage,
				Batch: len(p.arrivals), SimTime: p.sys.sim.Now(),
			})
			p.arrivals = p.arrivals[:0]
		}
		p.stage++
		p.advance(p.batch)
	}
}

func (p *queryProc) finish() {
	p.out.Completion = p.sys.sim.Now()
	p.out.Response = p.out.Completion - p.out.Arrival
	p.out.Results = p.exec.Results()
	p.out.Stats = p.exec.Stats()
	p.exec.Release()
	if p.done != nil {
		p.done()
	}
}

// fail ends the query with a typed degraded-mode error: no results, no
// stats, never a partial answer. The single-user chain still advances
// so one dead drive does not stall the rest of the workload.
func (p *queryProc) fail(err error) {
	if p.failed {
		return
	}
	p.failed = true
	p.exec.Release()
	p.out.Err = err
	p.out.Completion = p.sys.sim.Now()
	p.out.Response = p.out.Completion - p.out.Arrival
	if p.done != nil {
		p.done()
	}
}

// Run executes the workload to completion and reports statistics. The
// paper's experiments run 100 queries and average the response time.
func (s *System) Run(w Workload) (RunResult, error) {
	if w.Algorithm == nil {
		return RunResult{}, errors.New("simarray: workload has no algorithm")
	}
	if w.K <= 0 {
		return RunResult{}, fmt.Errorf("simarray: k must be positive, got %d", w.K)
	}
	if len(w.Queries) == 0 {
		return RunResult{}, errors.New("simarray: workload has no queries")
	}
	outcomes := make([]QueryOutcome, len(w.Queries))
	procs := make([]*queryProc, len(w.Queries))
	for i, q := range w.Queries {
		outcomes[i] = QueryOutcome{Index: i}
		procs[i] = &queryProc{
			sys:  s,
			exec: w.Algorithm.NewExecution(s.tree, q, w.K, w.Options),
			out:  &outcomes[i],
			obsv: w.Options.Observer,
		}
	}

	if w.ArrivalRate > 0 {
		// Poisson arrivals: exponential interarrival times.
		arr := rand.New(rand.NewSource(s.cfg.Seed + 100003))
		t := 0.0
		for i := range procs {
			p := procs[i]
			s.sim.At(t, p.start)
			t += arr.ExpFloat64() / w.ArrivalRate
		}
	} else {
		// Single-user: next query starts when the previous finishes.
		for i := 0; i < len(procs)-1; i++ {
			next := procs[i+1]
			procs[i].done = next.start
		}
		s.sim.At(0, procs[0].start)
	}

	s.sim.Run()

	var res RunResult
	res.Outcomes = outcomes
	succeeded := 0
	for i := range outcomes {
		o := &outcomes[i]
		if o.Err != nil {
			res.Failed++
			if o.Completion > res.Makespan {
				res.Makespan = o.Completion
			}
			continue
		}
		if o.Stats == nil {
			return res, fmt.Errorf("simarray: query %d never completed", i)
		}
		succeeded++
		res.MeanResponse += o.Response
		if o.Response > res.MaxResponse {
			res.MaxResponse = o.Response
		}
		if o.Completion > res.Makespan {
			res.Makespan = o.Completion
		}
	}
	if succeeded > 0 {
		res.MeanResponse /= float64(succeeded)
	}

	horizon := res.Makespan
	if horizon <= 0 {
		horizon = math.SmallestNonzeroFloat64
	}
	// One report per physical drive, mirrors flattened after their
	// logical disk.
	res.Disks = make([]DiskReport, 0, len(s.disks)*s.cfg.Mirrors)
	for _, mirrors := range s.disks {
		for _, st := range mirrors {
			stats := st.Stats()
			res.Disks = append(res.Disks, DiskReport{
				Requests:    stats.Jobs,
				Utilization: stats.Utilization(horizon),
				MeanWait:    stats.MeanWait(),
			})
		}
	}
	res.BusUtil = s.bus.Stats().Utilization(horizon)
	var cpuBusy float64
	for _, c := range s.cpus {
		cpuBusy += c.Stats().Utilization(horizon)
	}
	res.CPUUtil = cpuBusy / float64(len(s.cpus))
	return res, nil
}

// MeanResponseOf is a convenience that builds a system and runs a
// workload in one call, returning the mean response time.
func MeanResponseOf(tree *parallel.Tree, cfg Config, w Workload) (float64, error) {
	sys, err := NewSystem(tree, cfg)
	if err != nil {
		return 0, err
	}
	res, err := sys.Run(w)
	if err != nil {
		return 0, err
	}
	return res.MeanResponse, nil
}
