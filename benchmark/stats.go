package main

import (
	"math"
	"sort"
)

// Raw latency samples are kept as they were measured; every percentile below
// is computed from the sorted samples themselves (linear interpolation between
// the two nearest ranks), never from histogram buckets.

// percentile returns the p-th percentile (0..100) of xs, which must be sorted
// ascending. An empty slice yields 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n == 1:
		return sorted[0]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := rank - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// sample is one completed operation of a timed phase.
type sample struct {
	// at is the completion time in ns since the phase started.
	at int64
	// dur is the latency in ns: completion minus start in a closed loop; in an
	// open loop completion minus the moment the op was due (its intended start),
	// less late, the part of the delay that was the generator's own.
	dur int64
	// lag is how long after its intended start the op was sent, in ns (open
	// loop only): the wait for its connection plus late.
	lag int64
	// late is the generator's own lateness in ns (open loop only): how long
	// after the op could first have been sent — its intended start, or the
	// moment its connection came free if a slow reply held it past that — the
	// generator got to it (timer granularity, its own scheduling).
	late   int64
	kind   opKind
	window uint8 // open loop: which of the fixed-rate windows the op was due in
	failed bool
	traced bool // a span was recorded around the op (traced run, every other session)
}

func durationsMs(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.dur) / 1e6
	}
	return out
}

// windowedP95 cuts [from, from+span) into windows equal slices by completion
// time, takes the p95 of each and returns the median of those. A single p95
// over a whole phase follows its slowest stretch; the median of per-window
// p95s is what the phase looked like most of the time, and it repeats far
// better.
func windowedP95(samples []sample, from, span int64, windows int) float64 {
	if len(samples) == 0 || span <= 0 || windows <= 0 {
		return 0
	}
	buckets := make([][]float64, windows)
	for _, s := range samples {
		w := int((s.at - from) * int64(windows) / span)
		if w < 0 {
			w = 0
		}
		if w >= windows {
			w = windows - 1
		}
		buckets[w] = append(buckets[w], float64(s.dur)/1e6)
	}
	var p95s []float64
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		sort.Float64s(b)
		p95s = append(p95s, percentile(b, 95))
	}
	return median(p95s)
}

// quartiles returns the first quartile, median and third quartile of xs the
// way Python's statistics.quantiles(xs, n=4) does (exclusive method), which is
// the rule the acceptance driver applies to repeated runs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	data := sortedCopy(xs)
	m := len(data)
	switch m {
	case 0:
		return 0, 0, 0
	case 1:
		return data[0], data[0], data[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median: the run-to-run
// noise a bound has to be read against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}
