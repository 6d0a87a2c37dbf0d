// Package lockrank mirrors repro/internal/lockrank as it builds under
// the lockrank tag, where a ranked mutex has Lock methods of its own
// rather than the embedded sync type's.
package lockrank

import "sync"

type Leaf struct{}

type Mutex[R any] struct{ mu sync.Mutex }

func (m *Mutex[R]) Lock()   { m.mu.Lock() }
func (m *Mutex[R]) Unlock() { m.mu.Unlock() }
