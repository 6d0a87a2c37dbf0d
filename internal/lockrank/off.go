//go:build !lockrank

package lockrank

import "sync"

// Mutex is a sync.Mutex whose rank is R.
type Mutex[R Rank] struct{ sync.Mutex }

// RWMutex is a sync.RWMutex whose rank is R.
type RWMutex[R Rank] struct{ sync.RWMutex }
