package stats

import "math/rand"

// NewRNG returns a deterministic random source seeded with seed. Every
// stochastic component of the reproduction (workload generation, synthetic
// census data, simulation replications) threads one of
// these through explicitly so that experiments are repeatable.
func NewRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// SplitRNG derives a child RNG from a parent deterministically. It is used by
// the simulation harness to give each replication its own independent stream
// while keeping the whole experiment reproducible from a single seed.
func SplitRNG(parent *rand.Rand) *rand.Rand {
	return rand.New(rand.NewSource(parent.Int63()))
}
