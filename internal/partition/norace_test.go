//go:build !race

package partition

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
