package disk

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHPC2200AValid(t *testing.T) {
	p := HPC2200A()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Cylinders != 1449 {
		t.Errorf("cylinders = %d", p.Cylinders)
	}
	if p.RevolutionTime != 0.0149 {
		t.Errorf("revolution = %g", p.RevolutionTime)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	cases := []func(*Params){
		func(p *Params) { p.Cylinders = 0 },
		func(p *Params) { p.RevolutionTime = 0 },
		func(p *Params) { p.SeekThreshold = -1 },
		func(p *Params) { p.SeekThreshold = 100000 },
		func(p *Params) { p.BlockSize = 0 },
		func(p *Params) { p.TransferTime = -1 },
		func(p *Params) { p.ControllerOverhead = -1 },
	}
	for i, mut := range cases {
		p := HPC2200A()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted bad params", i)
		}
	}
}

func TestSeekTimePhases(t *testing.T) {
	p := HPC2200A()
	if got := p.SeekTime(0); got != 0 {
		t.Errorf("zero seek = %g", got)
	}
	// Short seek: 1 cylinder = c1 + c2*1.
	want := p.C1 + p.C2
	if got := p.SeekTime(1); math.Abs(got-want) > 1e-12 {
		t.Errorf("seek(1) = %g, want %g", got, want)
	}
	// Boundary cylinder uses the short-seek equation.
	wantB := p.C1 + p.C2*math.Sqrt(float64(p.SeekThreshold))
	if got := p.SeekTime(p.SeekThreshold); math.Abs(got-wantB) > 1e-12 {
		t.Errorf("seek(sdt) = %g, want %g", got, wantB)
	}
	// One past the boundary uses the long-seek equation.
	wantL := p.C3 + p.C4*float64(p.SeekThreshold+1)
	if got := p.SeekTime(p.SeekThreshold + 1); math.Abs(got-wantL) > 1e-12 {
		t.Errorf("seek(sdt+1) = %g, want %g", got, wantL)
	}
	// Negative distances are absolute.
	if p.SeekTime(-5) != p.SeekTime(5) {
		t.Error("seek not symmetric in direction")
	}
}

// Property: seek time is monotone non-decreasing in distance within each
// phase, and always positive for d > 0.
func TestSeekMonotoneProperty(t *testing.T) {
	p := HPC2200A()
	f := func(dRaw uint16) bool {
		d := int(dRaw) % p.Cylinders
		if d == 0 {
			return p.SeekTime(0) == 0
		}
		t1 := p.SeekTime(d)
		if t1 <= 0 {
			return false
		}
		// monotone within the same phase
		if d > 1 {
			samePhase := (d <= p.SeekThreshold) == (d-1 <= p.SeekThreshold)
			if samePhase && p.SeekTime(d-1) > t1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDriveServiceTimeDeterministic(t *testing.T) {
	d, err := NewDrive(0, HPC2200A())
	if err != nil {
		t.Fatal(err)
	}
	// First request from cylinder 0 to 100 with nil rng:
	want := d.SeekTime(100) + d.AverageRotationalLatency() + d.TransferTime + d.ControllerOverhead
	got := d.ServiceTime(100, nil)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("service = %g, want %g", got, want)
	}
	if d.Arm() != 100 {
		t.Errorf("arm = %d, want 100", d.Arm())
	}
	// Re-reading the same cylinder: no seek component.
	want2 := d.AverageRotationalLatency() + d.TransferTime + d.ControllerOverhead
	if got2 := d.ServiceTime(100, nil); math.Abs(got2-want2) > 1e-12 {
		t.Errorf("same-cylinder service = %g, want %g", got2, want2)
	}
	if d.Requests != 2 {
		t.Errorf("requests = %d", d.Requests)
	}
}

func TestDriveArmTracksFCFSOrder(t *testing.T) {
	d, _ := NewDrive(0, HPC2200A())
	seq := []int{10, 500, 490, 0}
	var totalSeek float64
	prev := 0
	for _, c := range seq {
		dist := c - prev
		if dist < 0 {
			dist = -dist
		}
		totalSeek += d.SeekTime(dist)
		d.ServiceTime(c, nil)
		prev = c
	}
	if math.Abs(d.TotalSeek-totalSeek) > 1e-12 {
		t.Errorf("TotalSeek = %g, want %g", d.TotalSeek, totalSeek)
	}
}

func TestDriveRotationalLatencyBounded(t *testing.T) {
	d, _ := NewDrive(0, HPC2200A())
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		cyl := rnd.Intn(d.Cylinders)
		before := d.Arm()
		dist := cyl - before
		if dist < 0 {
			dist = -dist
		}
		svc := d.ServiceTime(cyl, rnd)
		min := d.SeekTime(dist) + d.TransferTime + d.ControllerOverhead
		max := min + d.RevolutionTime
		if svc < min || svc > max {
			t.Fatalf("service %g outside [%g,%g]", svc, min, max)
		}
	}
}

func TestDriveOutOfRangePanics(t *testing.T) {
	d, _ := NewDrive(0, HPC2200A())
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	d.ServiceTime(d.Cylinders, nil)
}

func TestNewDriveRejectsInvalid(t *testing.T) {
	p := HPC2200A()
	p.Cylinders = 0
	if _, err := NewDrive(0, p); err == nil {
		t.Error("NewDrive accepted invalid params")
	}
}
