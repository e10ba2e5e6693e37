//go:build race

package dist

// raceEnabled reports a race-detector build. Its sync.Pool drops a quarter
// of what it is given, so steady-state allocation figures are not the
// cluster path's own there.
const raceEnabled = true
