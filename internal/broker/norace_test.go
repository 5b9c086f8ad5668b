//go:build !race

package broker

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
