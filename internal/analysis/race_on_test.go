//go:build race

package analysis

// raceEnabled reports a -race build, where sync.Pool drops items at random
// and pooled scratch is no longer allocation-free.
const raceEnabled = true
