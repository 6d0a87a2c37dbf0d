package lint

import (
	"strings"
	"testing"
)

// This file pins lockorder's acceptance criterion as a
// fail-before/pass-after pair: the "broken" fixture reintroduces a bug
// class the suite must catch with EXACTLY one diagnostic under the full
// analyzer set (no noise, no duplicates), and the "fixed" twin — the
// shape the repo actually ships — must be completely clean. The fixture
// import path starts with "lockorder" so inConcurrencyScope treats it
// as concurrency-bearing.

// runAll loads src under importPath and runs the full suite.
func runAll(t *testing.T, importPath, src string) []Diagnostic {
	t.Helper()
	pkg := parseAs(t, importPath, src)
	diags, err := RunAnalyzers(pkg, All())
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

func assertOne(t *testing.T, diags []Diagnostic, analyzer, msgPart string) {
	t.Helper()
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 diagnostic, got %d: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != analyzer {
		t.Errorf("want analyzer %q, got %q (%s)", analyzer, d.Analyzer, d.Message)
	}
	if !strings.Contains(d.Message, msgPart) {
		t.Errorf("message %q does not contain %q", d.Message, msgPart)
	}
}

func assertClean(t *testing.T, diags []Diagnostic) {
	t.Helper()
	for _, d := range diags {
		t.Errorf("want clean, got [%s] %s", d.Analyzer, d.Message)
	}
}

// TestRegressionLockOrderInversion reintroduces a lock-order inversion
// between the bufferpool's shard mutex and the pagestore's store mutex:
// two call paths acquiring {shard.mu, DurableStore.mu} in opposite
// orders form a cycle in the global order graph. One diagnostic; the
// consistent-order twin is clean.
func TestRegressionLockOrderInversion(t *testing.T) {
	const broken = `package inv

import "sync"

type shard struct {
	mu   sync.Mutex
	hits int
}

type DurableStore struct {
	mu    sync.Mutex
	dirty int
}

// evict pins the page under the shard lock, then marks the store.
func evict(s *shard, d *DurableStore) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d.mu.Lock()
	d.dirty++
	d.mu.Unlock()
	s.hits++
}

// checkpoint walks the store, touching each shard: the reverse order.
func checkpoint(d *DurableStore, s *shard) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s.mu.Lock()
	s.hits++
	s.mu.Unlock()
	d.dirty++
}
`
	assertOne(t, runAll(t, "lockorder_inversion", broken),
		"lockorder", "lock-order cycle")

	const fixed = `package inv

import "sync"

type shard struct {
	mu   sync.Mutex
	hits int
}

type DurableStore struct {
	mu    sync.Mutex
	dirty int
}

func evict(s *shard, d *DurableStore) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d.mu.Lock()
	d.dirty++
	d.mu.Unlock()
	s.hits++
}

// checkpoint now acquires shard.mu first, matching evict.
func checkpoint(d *DurableStore, s *shard) {
	s.mu.Lock()
	s.hits++
	s.mu.Unlock()
	d.mu.Lock()
	d.dirty++
	d.mu.Unlock()
}
`
	assertClean(t, runAll(t, "lockorder_inversion", fixed))
}
