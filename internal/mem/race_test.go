//go:build race

package mem

// raceEnabled reports a -race build, in which sync.Pool drops items
// on purpose and allocation counts say nothing about the pool.
const raceEnabled = true
