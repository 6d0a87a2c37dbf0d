package obs_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/bufferpool"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/rtree"
)

// telemetry is one snapshot type of the engine's counter sets, with the
// live struct Load reads it from (nil for a snapshot assembled by its
// owner: the cache and view pool count under their own locks).
type telemetry struct {
	name string
	live reflect.Type
	load func(live any) any // obs.Load into the snapshot type
	diff func(cur, prev any) any
	zero any // the snapshot type's zero value
}

func telemetryOf[S any](live reflect.Type) telemetry {
	var zero S
	return telemetry{
		name: reflect.TypeOf(zero).String(),
		live: live,
		load: func(l any) any { return obs.Load[S](l) },
		diff: func(cur, prev any) any { return obs.Diff(cur.(S), prev.(S)) },
		zero: zero,
	}
}

// allTelemetry lists every counter set the engine and the server
// report.
func allTelemetry(t *testing.T) []telemetry {
	engineStats, ok := typeOf[exec.Engine]().FieldByName("stats")
	if !ok {
		t.Fatal("exec.Engine has no stats field: name the live form of exec.Stats here")
	}
	return []telemetry{
		telemetryOf[obs.FaultSnapshot](typeOf[obs.FaultCounters]()),
		telemetryOf[obs.StorageSnapshot](typeOf[obs.StorageCounters]()),
		telemetryOf[obs.DiskSnapshot](typeOf[obs.DiskGauges]()),
		telemetryOf[obs.TenantSnapshot](typeOf[obs.TenantMetrics]()),
		telemetryOf[exec.Stats](engineStats.Type),
		telemetryOf[bufferpool.Stats](nil),
		telemetryOf[rtree.ViewStats](nil),
		telemetryOf[exec.Snapshot](nil),
	}
}

func typeOf[T any]() reflect.Type { return reflect.TypeOf((*T)(nil)).Elem() }

// TestTelemetryComplete sets every live counter to its own value and
// requires Load to carry each into the snapshot, and Diff of a reading
// with itself to zero every counter while keeping every gauge.
func TestTelemetryComplete(t *testing.T) {
	for _, tm := range allTelemetry(t) {
		t.Run(tm.name, func(t *testing.T) {
			if tm.live != nil {
				live, want := fillLive(tm.live)
				var snap any
				if msg := panicOf(func() { snap = tm.load(live.Interface()) }); msg != "" {
					t.Fatalf("Load panicked: %s", msg)
				}
				got := reflect.ValueOf(snap)
				for name, v := range want {
					if f := got.FieldByName(name); !reflect.DeepEqual(f.Interface(), v) {
						t.Errorf("Load: %s = %v, want %v", name, f.Interface(), v)
					}
				}
			}
			x := reflect.New(reflect.TypeOf(tm.zero)).Elem()
			fillSnapshot(x, new(int))
			checkDiffSelf(t, tm.name, reflect.ValueOf(tm.diff(x.Interface(), x.Interface())), x)
		})
	}
}

// fillLive returns a new live struct of type lt whose every field holds
// a distinct value, and the snapshot value each field must load as.
func fillLive(lt reflect.Type) (reflect.Value, map[string]any) {
	live := reflect.New(lt)
	want := map[string]any{}
	for i := 0; i < lt.NumField(); i++ {
		name, n := lt.Field(i).Name, i+1
		switch f := live.Elem().Field(i).Addr().Interface().(type) {
		case *atomic.Uint64:
			f.Store(uint64(100 + n))
			want[name] = uint64(100 + n)
		case *atomic.Int64:
			f.Store(int64(-n))
			want[name] = int64(-n)
		case **obs.Histogram:
			*f = obs.NewLatencyHistogram()
			for j := 0; j < n; j++ {
				(*f).Observe(float64(j) * 1e-3)
			}
			want[name] = (*f).Snapshot()
		default:
			panic(fmt.Sprintf("%s.%s: no test value for %T", lt, name, f))
		}
	}
	return live, want
}

// fillSnapshot sets every field of v, recursively, to a distinct
// non-zero value.
func fillSnapshot(v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillSnapshot(v.Field(i), n)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillSnapshot(v.Index(i), n)
		}
	default:
		panic(fmt.Sprintf("no test value for %s", v.Type()))
	}
}

// checkDiffSelf requires d = Diff(x, x) to hold zero in every counter
// and x's reading in every gauge.
func checkDiffSelf(t *testing.T, path string, d, x reflect.Value) {
	t.Helper()
	if h, ok := d.Interface().(obs.HistSnapshot); ok {
		if h.Count != 0 || h.Sum != 0 || !reflect.DeepEqual(h.Counts, make([]uint64, len(h.Counts))) {
			t.Errorf("%s: histogram not emptied: %+v", path, h)
		}
		return
	}
	switch d.Kind() {
	case reflect.Uint64:
		if d.Uint() != 0 {
			t.Errorf("%s: counter = %d after Diff(x, x), want 0", path, d.Uint())
		}
	case reflect.Struct:
		for i := 0; i < d.NumField(); i++ {
			checkDiffSelf(t, path+"."+d.Type().Field(i).Name, d.Field(i), x.Field(i))
		}
	case reflect.Slice:
		if k := d.Type().Elem().Kind(); (k == reflect.Uint64 || k == reflect.Struct) && d.Len() == x.Len() {
			for i := 0; i < d.Len(); i++ {
				checkDiffSelf(t, fmt.Sprintf("%s[%d]", path, i), d.Index(i), x.Index(i))
			}
			return
		}
		fallthrough
	default:
		if !reflect.DeepEqual(d.Interface(), x.Interface()) {
			t.Errorf("%s: gauge = %v after Diff(x, x), want %v", path, d.Interface(), x.Interface())
		}
	}
}

// TestLoadNamesUnpairedField pins the panic that makes a counter
// declared on one side only fail the first snapshot.
func TestLoadNamesUnpairedField(t *testing.T) {
	type snap struct {
		Reads  uint64
		Queued int64
	}
	type extra struct {
		Reads  atomic.Uint64
		Queued atomic.Int64
		Stray  atomic.Uint64
	}
	type short struct{ Reads atomic.Uint64 }
	type wrongKind struct {
		Reads  atomic.Int64
		Queued atomic.Int64
	}
	for _, c := range []struct {
		live  any
		field string
	}{
		{&extra{}, "Stray"},
		{&short{}, "Queued"},
		{&wrongKind{}, "Reads"},
	} {
		msg := panicOf(func() { obs.Load[snap](c.live) })
		if !strings.Contains(msg, c.field) {
			t.Errorf("Load[snap](%T): panic %q, want one naming %s", c.live, msg, c.field)
		}
	}
}

// panicOf runs f and returns its panic message, or "" when f returns.
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}
