// Package sim implements a small deterministic event-driven simulation
// kernel: a virtual clock, a time-ordered event heap and single-server
// FCFS queueing stations. It is the substrate for the disk-array system
// model of Papadopoulos & Manolopoulos (SIGMOD 1998, Section 4.1 and
// Figure 7), where each disk, the shared I/O bus and the CPU are FCFS
// queues.
//
// The kernel is deterministic: events scheduled for the same instant fire
// in scheduling order, so a simulation run is exactly reproducible for a
// given random seed.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Event is a scheduled callback. Events are ordered by Time, ties broken
// by scheduling sequence number.
type event struct {
	time float64
	seq  uint64
	fn   func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	//lint:allow floatcmp exact-equal event times deliberately fall through to the FIFO seq tie-break
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Simulator is a discrete-event simulator with a virtual clock measured
// in seconds. The zero value is not ready for use; call New.
type Simulator struct {
	now    float64
	events eventHeap
	seq    uint64
}

// New returns a simulator with the clock at zero.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current virtual time in seconds.
func (s *Simulator) Now() float64 { return s.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past panics: it would silently reorder causality.
func (s *Simulator) At(t float64, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %.9f before now %.9f", t, s.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: invalid event time %v", t))
	}
	s.seq++
	heap.Push(&s.events, &event{time: t, seq: s.seq, fn: fn})
}

// After schedules fn to run d seconds from now.
func (s *Simulator) After(d float64, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %g", d))
	}
	s.At(s.now+d, fn)
}

// Step executes the next event, advancing the clock. It returns false if
// no events remain.
func (s *Simulator) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	e := heap.Pop(&s.events).(*event)
	s.now = e.time
	e.fn()
	return true
}

// Run executes events until none remain.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// StationStats aggregates service statistics for a queueing station.
type StationStats struct {
	Jobs      uint64  // jobs completed
	BusyTime  float64 // total service time delivered
	WaitTime  float64 // total time jobs spent waiting before service
	LastIdle  float64 // time the server last became idle
	MaxQueued int     // high-water mark of jobs queued or in service
}

// MeanWait returns the mean queueing delay per job.
func (st StationStats) MeanWait() float64 {
	if st.Jobs == 0 {
		return 0
	}
	return st.WaitTime / float64(st.Jobs)
}

// Utilization returns the fraction of [0, horizon] the server was busy.
func (st StationStats) Utilization(horizon float64) float64 {
	if horizon <= 0 {
		return 0
	}
	return st.BusyTime / horizon
}

// Station is a single-server FCFS queue. Service demands are known at
// submission time, so the departure instant of each job can be computed
// immediately: finish = max(now, server free time) + service. The
// completion callback is dispatched through the simulator's event heap,
// which keeps all causality visible to the virtual clock.
type Station struct {
	sim      *Simulator
	freeAt   float64 // time the server finishes its last accepted job
	inFlight int
	stats    StationStats
}

// NewStation returns an FCFS station bound to sim.
func NewStation(sim *Simulator) *Station {
	return &Station{sim: sim}
}

// Stats returns a copy of the station's statistics.
func (q *Station) Stats() StationStats { return q.stats }

// Submit enqueues a job with the given service demand (seconds). done, if
// non-nil, runs at the job's departure instant and receives the times at
// which service started and finished.
func (q *Station) Submit(service float64, done func(start, finish float64)) {
	if service < 0 || math.IsNaN(service) {
		panic(fmt.Sprintf("sim: invalid service time %g", service))
	}
	now := q.sim.Now()
	start := now
	if q.freeAt > start {
		start = q.freeAt
	}
	finish := start + service
	q.freeAt = finish
	q.inFlight++
	if q.inFlight > q.stats.MaxQueued {
		q.stats.MaxQueued = q.inFlight
	}
	q.stats.WaitTime += start - now
	q.stats.BusyTime += service
	q.sim.At(finish, func() {
		q.inFlight--
		q.stats.Jobs++
		if q.inFlight == 0 {
			q.stats.LastIdle = finish
		}
		if done != nil {
			done(start, finish)
		}
	})
}

// FreeAt returns the virtual time at which the server will have drained
// every job accepted so far.
func (q *Station) FreeAt() float64 { return q.freeAt }
