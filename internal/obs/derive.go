package obs

import (
	"fmt"
	"reflect"
	"sync/atomic"
)

// Load reads live, a pointer to a struct of live counters, into its
// snapshot type S: each atomic.Uint64 or atomic.Int64 field goes to the
// same-named uint64 or int64 field of S, and each *Histogram field to a
// HistSnapshot. The two types must pair field for field; Load panics,
// naming the field, when one has no partner on the other side, so a
// counter declared on one side only fails the first snapshot taken.
// Reflection runs here, at snapshot time; the counters themselves stay
// plain atomics on the hot path.
func Load[S any](live any) S {
	var snap S
	src := reflect.ValueOf(live).Elem()
	dst := reflect.ValueOf(&snap).Elem()
	for i := 0; i < dst.NumField(); i++ {
		if name := dst.Type().Field(i).Name; !src.FieldByName(name).IsValid() {
			panic(fmt.Sprintf("obs: snapshot field %s.%s has no live counter in %s", dst.Type(), name, src.Type()))
		}
	}
	for i := 0; i < src.NumField(); i++ {
		name := src.Type().Field(i).Name
		to := dst.FieldByName(name)
		ok := to.IsValid() && src.Type().Field(i).IsExported()
		if ok {
			switch from := src.Field(i).Addr().Interface().(type) {
			case *atomic.Uint64:
				if ok = to.Kind() == reflect.Uint64; ok {
					to.SetUint(from.Load())
				}
			case *atomic.Int64:
				if ok = to.Kind() == reflect.Int64; ok {
					to.SetInt(from.Load())
				}
			case **Histogram:
				var hs *HistSnapshot
				if hs, ok = to.Addr().Interface().(*HistSnapshot); ok {
					*hs = (*from).Snapshot()
				}
			default:
				ok = false
			}
		}
		if !ok {
			panic(fmt.Sprintf("obs: live counter %s.%s has no snapshot field in %s", src.Type(), name, dst.Type()))
		}
	}
	return snap
}

// Diff returns the interval between two readings of the same counters
// (cur taken after prev): uint64 fields subtract, and signed gauges and
// every other value keep cur's reading. Nested structs are diffed field
// by field, slices of counters element by element (an element prev
// lacks counts from zero), and a field whose type has its own Sub
// method is diffed by it.
func Diff[S any](cur, prev S) S {
	diffFields(reflect.ValueOf(&cur).Elem(), reflect.ValueOf(prev))
	return cur
}

// diffFields diffs the struct out, which holds the later reading, in
// place.
func diffFields(out, prev reflect.Value) {
	for i := 0; i < out.NumField(); i++ {
		diffValue(out.Field(i), prev.Field(i))
	}
}

func diffValue(out, prev reflect.Value) {
	t := out.Type()
	if m, ok := t.MethodByName("Sub"); ok && m.Type.NumIn() == 2 && m.Type.In(1) == t &&
		m.Type.NumOut() == 1 && m.Type.Out(0) == t {
		out.Set(out.Method(m.Index).Call([]reflect.Value{prev})[0])
		return
	}
	switch out.Kind() {
	case reflect.Uint64:
		out.SetUint(out.Uint() - prev.Uint())
	case reflect.Struct:
		diffFields(out, prev)
	case reflect.Slice:
		if k := t.Elem().Kind(); k != reflect.Uint64 && k != reflect.Struct {
			return // not counters: keep the later reading
		}
		diffed := reflect.MakeSlice(t, out.Len(), out.Len())
		reflect.Copy(diffed, out) // out shares cur's backing array
		for i := 0; i < diffed.Len(); i++ {
			p := reflect.Zero(t.Elem())
			if i < prev.Len() {
				p = prev.Index(i)
			}
			diffValue(diffed.Index(i), p)
		}
		out.Set(diffed)
	}
}
