//go:build race

package core_test

// raceEnabled reports whether the race detector is compiled in; the race
// runtime allocates on its own, so allocation pins skip under it.
const raceEnabled = true
