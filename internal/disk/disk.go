// Package disk models a magnetic disk drive for event-driven simulation,
// following the two-phase non-linear seek model of Ruemmler & Wilkes
// (IEEE Computer 1994) used by Papadopoulos & Manolopoulos (SIGMOD 1998,
// Section 4.1 and Table 2):
//
//	Tseek(d) = 0                      if d = 0
//	         = c1 + c2*sqrt(d)        if 0 < d <= sdt   (acceleration phase)
//	         = c3 + c4*d              if d > sdt        (steady-speed phase)
//
// A disk access additionally pays rotational latency (half a revolution
// on average; the simulator draws it uniformly from a full revolution),
// block transfer time and a fixed controller overhead.
package disk

import (
	"fmt"
	"math"
	"math/rand"
)

// Params describes a disk drive model. Times are in seconds, seek
// constants in seconds per the paper's equation with d in cylinders.
type Params struct {
	Name               string  // model name, e.g. "HP-C2200A"
	Cylinders          int     // number of cylinders
	RevolutionTime     float64 // full platter revolution time (s)
	C1, C2             float64 // short-seek constants: c1 + c2*sqrt(d)
	C3, C4             float64 // long-seek constants:  c3 + c4*d
	SeekThreshold      int     // sdt: boundary between the two seek phases
	BlockSize          int     // striping unit / page size in bytes
	TransferTime       float64 // time to read one block off the platter (s)
	ControllerOverhead float64 // fixed per-request controller time (s)
}

// Validate reports whether the parameter set is usable.
func (p Params) Validate() error {
	switch {
	case p.Cylinders <= 0:
		return fmt.Errorf("disk: %s: cylinders must be positive", p.Name)
	case p.RevolutionTime <= 0:
		return fmt.Errorf("disk: %s: revolution time must be positive", p.Name)
	case p.SeekThreshold < 0 || p.SeekThreshold > p.Cylinders:
		return fmt.Errorf("disk: %s: seek threshold %d out of range", p.Name, p.SeekThreshold)
	case p.BlockSize <= 0:
		return fmt.Errorf("disk: %s: block size must be positive", p.Name)
	case p.TransferTime < 0 || p.ControllerOverhead < 0:
		return fmt.Errorf("disk: %s: negative time constant", p.Name)
	}
	return nil
}

// HPC2200A returns the parameters of the HP C2200A drive used in the
// paper's experiments (Table 2). The seek constants are from Ruemmler &
// Wilkes: short seeks (d <= 383 cylinders) take 3.24 + 0.400*sqrt(d) ms,
// long seeks 8.00 + 0.008*d ms. The drive has 1449 cylinders and a
// 14.9 ms revolution. The striping unit is one 4 KiB block; at a media
// rate of about 2 MB/s a block transfers in ~2 ms; controller overhead
// is 1.1 ms.
func HPC2200A() Params {
	return Params{
		Name:               "HP-C2200A",
		Cylinders:          1449,
		RevolutionTime:     0.0149,
		C1:                 3.24e-3,
		C2:                 0.400e-3,
		C3:                 8.00e-3,
		C4:                 0.008e-3,
		SeekThreshold:      383,
		BlockSize:          4096,
		TransferTime:       2.0e-3,
		ControllerOverhead: 1.1e-3,
	}
}

// SeekTime returns the head movement time for a seek of d cylinders.
func (p Params) SeekTime(d int) float64 {
	if d < 0 {
		d = -d
	}
	switch {
	case d == 0:
		return 0
	case d <= p.SeekThreshold:
		return p.C1 + p.C2*math.Sqrt(float64(d))
	default:
		return p.C3 + p.C4*float64(d)
	}
}

// AverageRotationalLatency returns half a revolution.
func (p Params) AverageRotationalLatency() float64 { return p.RevolutionTime / 2 }

// Drive is the dynamic state of one disk in the array: its arm position.
// The drive computes per-request service times; queueing is handled by
// the simulation kernel. Drives are not synchronized — each moves its
// arm independently (paper §4.1).
type Drive struct {
	Params
	ID  int
	arm int // current cylinder; disks start at cylinder 0 (paper §4.1)

	// Counters for experiment reporting.
	Requests     uint64
	TotalService float64
	TotalSeek    float64
}

// NewDrive returns a drive with the arm parked at cylinder 0.
func NewDrive(id int, p Params) (*Drive, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Drive{Params: p, ID: id}, nil
}

// Arm returns the current arm cylinder.
func (d *Drive) Arm() int { return d.arm }

// ServiceTime computes the full service time for reading the block at
// the given cylinder and advances the arm there. The rotational latency
// is drawn uniformly from one revolution using rnd; pass nil for the
// deterministic average (half a revolution).
//
// ServiceTime must be called in FCFS service order: the seek distance
// depends on where the previous request left the arm.
func (d *Drive) ServiceTime(cylinder int, rnd *rand.Rand) float64 {
	if cylinder < 0 || cylinder >= d.Cylinders {
		panic(fmt.Sprintf("disk %d: cylinder %d out of range [0,%d)", d.ID, cylinder, d.Cylinders))
	}
	dist := cylinder - d.arm
	if dist < 0 {
		dist = -dist
	}
	seek := d.SeekTime(dist)
	var rot float64
	if rnd != nil {
		rot = rnd.Float64() * d.RevolutionTime
	} else {
		rot = d.AverageRotationalLatency()
	}
	d.arm = cylinder
	t := seek + rot + d.TransferTime + d.ControllerOverhead
	d.Requests++
	d.TotalService += t
	d.TotalSeek += seek
	return t
}
