//go:build race

package partition

// raceEnabled reports a race-detector build. Its sync.Pool drops a quarter
// of what it is given, so the pooled builder is rebuilt at random there.
const raceEnabled = true
