//go:build !race

package mcf

// raceEnabled reports a race-detector build, where sync.Pool drops a
// random share of the items put back on purpose.
const raceEnabled = false
