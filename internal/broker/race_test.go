//go:build race

package broker

// raceEnabled reports a -race build, under which sync.Pool drops a quarter
// of what is put back, so a pooled path's allocation count is not its own.
const raceEnabled = true
