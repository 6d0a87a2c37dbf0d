//go:build race

package server

// raceEnabled reports that the race detector is on. Under it sync.Pool
// drops a share of what is Put, so allocation counts are not meaningful.
const raceEnabled = true
