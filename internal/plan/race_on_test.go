//go:build race

package plan

// raceEnabled reports whether the race detector is compiled in. Under race,
// sync.Pool intentionally drops a fraction of Puts, so tests asserting
// perfect arena recycling must skip.
const raceEnabled = true
