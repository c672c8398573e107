package obs

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// This file is a hand-rolled implementation of the Prometheus text exposition
// format (version 0.0.4): enough of the writer to serve GET /metrics from
// atomic counters. Tests check its output with obstest.ValidateExposition.

// escapeHelp escapes a HELP text: backslash and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value: backslash, double-quote and newline.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatValue renders a sample value the way Prometheus expects: shortest
// round-trip float, with +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// L is an ordered label set. Order is preserved in the output so exposition
// is deterministic (golden-file testable).
type L []struct{ Name, Value string }

// Label constructs one name/value pair for an L literal-free call site.
func Label(name, value string) struct{ Name, Value string } {
	return struct{ Name, Value string }{name, value}
}

// ExpositionWriter renders Prometheus text exposition. Use Header once per
// metric family, then Sample for each series. The zero value is ready to use.
type ExpositionWriter struct {
	b strings.Builder
}

// Header writes the # HELP and # TYPE lines for a metric family.
// typ is one of "counter", "gauge", "histogram", "untyped".
func (w *ExpositionWriter) Header(name, help, typ string) {
	w.b.WriteString("# HELP ")
	w.b.WriteString(name)
	w.b.WriteByte(' ')
	w.b.WriteString(escapeHelp(help))
	w.b.WriteByte('\n')
	w.b.WriteString("# TYPE ")
	w.b.WriteString(name)
	w.b.WriteByte(' ')
	w.b.WriteString(typ)
	w.b.WriteByte('\n')
}

// Sample writes one series line: name{labels} value.
func (w *ExpositionWriter) Sample(name string, labels L, value float64) {
	w.b.WriteString(name)
	if len(labels) > 0 {
		w.b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				w.b.WriteByte(',')
			}
			w.b.WriteString(l.Name)
			w.b.WriteString(`="`)
			w.b.WriteString(escapeLabel(l.Value))
			w.b.WriteByte('"')
		}
		w.b.WriteByte('}')
	}
	w.b.WriteByte(' ')
	w.b.WriteString(formatValue(value))
	w.b.WriteByte('\n')
}

// Hist writes a histogram family's series for one label set: cumulative
// le-buckets (including +Inf), _sum and _count. Call Header(name, help,
// "histogram") once before the first Hist of the family.
func (w *ExpositionWriter) Hist(name string, labels L, snap HistogramSnapshot) {
	cumulative := uint64(0)
	for i, bound := range snap.Bounds {
		cumulative += snap.Counts[i]
		bucketLabels := append(append(L{}, labels...), Label("le", formatValue(bound)))
		w.Sample(name+"_bucket", bucketLabels, float64(cumulative))
	}
	cumulative += snap.Counts[len(snap.Bounds)]
	infLabels := append(append(L{}, labels...), Label("le", "+Inf"))
	w.Sample(name+"_bucket", infLabels, float64(cumulative))
	w.Sample(name+"_sum", labels, snap.Sum)
	w.Sample(name+"_count", labels, float64(cumulative))
}

// String returns the exposition rendered so far.
func (w *ExpositionWriter) String() string {
	return w.b.String()
}

// --- histogram ---

// DefaultLatencyBuckets are the explicit bucket upper bounds, in seconds, for
// request/step latency histograms. They span 100µs (cached bitmap filters) to
// 10s (cold holdout replays over large tables), roughly ×~3 per step.
var DefaultLatencyBuckets = []float64{
	0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10,
}

// Histogram is a fixed-bucket latency histogram safe for concurrent use. All
// mutation is atomic adds; observation order across buckets and sum is not a
// consistent cut, which Prometheus semantics tolerate (scrapes are racy by
// design).
type Histogram struct {
	bounds []float64       // sorted upper bounds; implicit +Inf after the last
	counts []atomic.Uint64 // len(bounds)+1
	sumNs  atomic.Int64    // sum kept in integer ns so adds stay atomic
}

// NewHistogram returns a histogram with the given sorted upper bounds in
// seconds. nil selects DefaultLatencyBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram bounds must be sorted")
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	v := d.Seconds()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: le-bucket semantics
	h.counts[i].Add(1)
	h.sumNs.Add(d.Nanoseconds())
}

// HistogramSnapshot is a point-in-time read of a histogram: per-bucket
// (non-cumulative) counts aligned with Bounds plus the overflow bucket at
// Counts[len(Bounds)], and the sum of observations in seconds.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
}

// Snapshot reads the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	snap := HistogramSnapshot{Bounds: h.bounds, Counts: make([]uint64, len(h.counts))}
	for i := range h.counts {
		snap.Counts[i] = h.counts[i].Load()
	}
	snap.Sum = float64(h.sumNs.Load()) / 1e9
	return snap
}
