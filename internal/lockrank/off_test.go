//go:build !lockrank

package lockrank_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/lockrank"
)

// TestUntaggedAddsNothing pins the untagged types to the sync types they
// embed: a ranked mutex costs no byte in the structs that hold one.
func TestUntaggedAddsNothing(t *testing.T) {
	for _, c := range []struct{ ranked, plain reflect.Type }{
		{reflect.TypeFor[lockrank.Mutex[lockrank.Leaf]](), reflect.TypeFor[sync.Mutex]()},
		{reflect.TypeFor[lockrank.RWMutex[lockrank.IndexMu]](), reflect.TypeFor[sync.RWMutex]()},
	} {
		if c.ranked.Size() != c.plain.Size() {
			t.Errorf("%v is %d bytes, %v is %d", c.ranked, c.ranked.Size(), c.plain, c.plain.Size())
		}
	}
}
