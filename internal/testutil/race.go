//go:build race

package testutil

// RaceEnabled reports whether the binary was built with the race detector,
// under which allocation counts mean nothing (instrumentation allocates and
// sync.Pool drops items at random).
const RaceEnabled = true
