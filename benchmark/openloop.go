package main

import (
	"math/rand"
	"sort"
	"time"

	"aware/internal/census"
)

// The open-loop workload models independent analysts: ops arrive on a Poisson
// schedule fixed before the run, whatever the server's speed. Each of the two
// connections owns half of every rate; an op that finds its connection still
// busy waits, and that wait is part of its latency because latency is timed
// from when the op was due, not from the moment the generator got to it. Only
// the generator's own lateness — it sleeps until an op is due, and on this
// host a sleep overshoots by up to a millisecond — is taken out again and
// reported apart (sample.late, gen.sched_lag_p99_ms): it is not the system's,
// and it would be a third of the median step.

// overrunGrace is how long past the schedule's end a connection may keep
// draining its backlog before the remaining ops are written off as failed.
const overrunGrace = 2 * time.Second

// schedule is one connection's arrival times, ascending, with the rate window
// each falls in.
type schedule struct {
	start   time.Time
	offsets []time.Duration
	windows []uint8
	total   time.Duration
	i       int
}

// shares returns the parts of the timed phase spent at each of the three
// rates. The untraced run, which the end-to-end metrics come from, stays at the lowest rate for
// its whole phase: queueing is mild there and latency repeats from run to run
// (at 55 % load the same p50 moved by ±25 % between runs on the builder's
// host), and a phase at one rate gives every metric all of its samples. The
// traced run steps through all three to find where the latency limit breaks
// (gen.r2_p95_ms, gen.r3_p95_ms, gen.rate_ok_ops_s).
func (c *runConfig) shares() [3]float64 {
	if c.trace {
		return [3]float64{0.5, 0.25, 0.25}
	}
	return [3]float64{1, 0, 0}
}

// windowBounds returns the start offsets of the rate windows and the end of
// the last one, for a timed phase of the given length.
func windowBounds(total time.Duration, shares [3]float64) [4]time.Duration {
	var b [4]time.Duration
	for w, share := range shares {
		b[w+1] = b[w] + time.Duration(share*float64(total))
	}
	return b
}

// newSchedule draws a Poisson arrival process that runs at rates[w] ops/s
// during the w-th window of a timed phase of length total.
func newSchedule(rng *rand.Rand, rates []float64, total time.Duration, shares [3]float64) *schedule {
	bounds := windowBounds(total, shares)
	s := &schedule{total: bounds[len(rates)]}
	for w, rate := range rates {
		for t := bounds[w]; ; {
			t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
			if t >= bounds[w+1] {
				break
			}
			s.offsets = append(s.offsets, t)
			s.windows = append(s.windows, uint8(w))
		}
	}
	return s
}

// next sleeps until the next op is due (returning at once if it is overdue).
func (s *schedule) next() (time.Time, int, bool) {
	if s.i >= len(s.offsets) || time.Since(s.start) > s.total+overrunGrace {
		return time.Time{}, 0, false
	}
	intended := s.start.Add(s.offsets[s.i])
	window := int(s.windows[s.i])
	s.i++
	if d := time.Until(intended); d > 0 {
		time.Sleep(d)
	}
	return intended, window, true
}

// unsent is how many scheduled ops were written off.
func (s *schedule) unsent() int { return len(s.offsets) - s.i }

// backlog is the mean number of ops that were due but not yet started, over
// ten instants spread across [from, to) (ns since the phase start). A single
// instant of a Poisson process is too jumpy to compare two of.
func backlog(samples []sample, from, to int64) float64 {
	total := 0
	for k := 0; k < 10; k++ {
		t := from + (to-from)*int64(k)/10
		for _, s := range samples {
			intended := s.at - s.dur - s.late
			if intended <= t && intended+s.lag > t {
				total++
			}
		}
	}
	return float64(total) / 10
}

// openWindow summarizes one fixed-rate window.
type openWindow struct {
	rate    float64
	ops     int
	failed  int
	stepP95 float64
	// backlogMid and backlogEnd are the mean backlog over the tenth of the
	// window around its middle and over its last tenth.
	backlogMid, backlogEnd float64
}

// ok reports whether the window's rate was sustained: p95 within the limit,
// nothing failed, and the backlog not growing across the window's second half
// (one op of slack: a backlog below one op is a queue that empties).
func (w openWindow) ok() bool {
	return w.ops > 0 && w.failed == 0 && w.stepP95 <= latencyLimitMs && w.backlogEnd <= w.backlogMid+1
}

// summarizeWindows splits an open-loop phase of the given length into its
// rate windows.
func summarizeWindows(p *phase, rates [3]float64, total time.Duration, shares [3]float64) []openWindow {
	bounds := windowBounds(total, shares)
	out := make([]openWindow, len(rates))
	for w := range out {
		out[w].rate = rates[w]
		var steps []float64
		for _, s := range p.samples {
			if int(s.window) != w {
				continue
			}
			out[w].ops++
			if s.failed {
				out[w].failed++
			} else if s.kind.class() == classStep {
				steps = append(steps, float64(s.dur)/1e6)
			}
		}
		sort.Float64s(steps)
		out[w].stepP95 = percentile(steps, 95)
		from, length := int64(bounds[w]), int64(bounds[w+1]-bounds[w])
		out[w].backlogMid = backlog(p.samples, from+length/2-length/20, from+length/2+length/20)
		out[w].backlogEnd = backlog(p.samples, from+length-length/10, from+length)
	}
	return out
}

// prefillSession is the open-loop workload's cache warm-up script: eight
// charts over consecutive entries of the pool's cold tail. Filling the server's
// filter cache to its capacity with entries the timed phase will rarely ask
// for means every later miss both inserts and evicts, without handing the
// timed phase any hits it would not have earned.
func (g *generator) prefillSession(analyst, index int) []op {
	ops := []op{{kind: opCreate}}
	for j := 0; j < 8; j++ {
		n := (index*2+analyst)*8 + j
		p := g.pool[len(g.pool)-1-n%len(g.pool)]
		target := census.ColHoursPerWeek
		for _, t := range catTargets {
			if !p.uses(t) {
				target = t
				break
			}
		}
		ops = append(ops, op{kind: opViz, target: target, pred: p})
	}
	return append(ops, op{kind: opDelete})
}
