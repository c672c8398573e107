//go:build race

package server

// raceEnabled reports whether the race detector is compiled in; the race
// runtime allocates on its own, so allocation pins skip under it.
const raceEnabled = true
