package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// This file is a hand-rolled implementation of the Prometheus text exposition
// format (version 0.0.4): enough of the writer to serve GET /metrics from
// atomic counters, and enough of a parser (ValidateExposition) for tests to
// reject malformed output without depending on client_golang.

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

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// --- exposition validation (used by tests) ---

var metricNameOK = func(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// ValidateExposition parses Prometheus text exposition strictly enough to
// catch the mistakes a hand-rolled writer can make: bad metric names,
// unbalanced or unescaped label quoting, unparsable values, TYPE lines with
// unknown types, and samples for families never declared with # TYPE. It
// returns the number of sample lines on success.
func ValidateExposition(text string) (samples int, err error) {
	declared := map[string]string{} // family -> type
	lines := strings.Split(text, "\n")
	for lineNo, line := range lines {
		if line == "" {
			continue
		}
		n := lineNo + 1
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return 0, fmt.Errorf("line %d: malformed comment %q", n, line)
			}
			if !metricNameOK(fields[2]) {
				return 0, fmt.Errorf("line %d: bad metric name %q", n, fields[2])
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return 0, fmt.Errorf("line %d: TYPE line needs a type", n)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return 0, fmt.Errorf("line %d: unknown metric type %q", n, fields[3])
				}
				declared[fields[2]] = fields[3]
			}
			continue
		}
		name, rest, lerr := parseSampleName(line)
		if lerr != nil {
			return 0, fmt.Errorf("line %d: %w", n, lerr)
		}
		family := name
		if declared[family] == "" {
			// Histogram series use the family name plus a suffix.
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suffix); ok && declared[base] == "histogram" {
					family = base
					break
				}
			}
			if declared[family] == "" {
				return 0, fmt.Errorf("line %d: sample %q has no # TYPE declaration", n, name)
			}
		}
		value := strings.TrimSpace(rest)
		// An optional timestamp may follow the value; the writer never emits
		// one, but tolerate it like Prometheus does.
		if i := strings.IndexByte(value, ' '); i >= 0 {
			ts := value[i+1:]
			value = value[:i]
			if _, terr := strconv.ParseInt(ts, 10, 64); terr != nil {
				return 0, fmt.Errorf("line %d: bad timestamp %q", n, ts)
			}
		}
		switch value {
		case "+Inf", "-Inf", "NaN", "Nan":
		default:
			if _, verr := strconv.ParseFloat(value, 64); verr != nil {
				return 0, fmt.Errorf("line %d: bad value %q", n, value)
			}
		}
		samples++
	}
	if samples == 0 {
		return 0, fmt.Errorf("exposition contains no samples")
	}
	return samples, nil
}

// parseSampleName splits a sample line into its metric name (validating any
// label block) and the remainder after the closing brace or name.
func parseSampleName(line string) (name, rest string, err error) {
	brace := strings.IndexByte(line, '{')
	space := strings.IndexByte(line, ' ')
	if brace == -1 || (space != -1 && space < brace) {
		if space == -1 {
			return "", "", fmt.Errorf("sample line has no value: %q", line)
		}
		name = line[:space]
		if !metricNameOK(name) {
			return "", "", fmt.Errorf("bad metric name %q", name)
		}
		return name, line[space+1:], nil
	}
	name = line[:brace]
	if !metricNameOK(name) {
		return "", "", fmt.Errorf("bad metric name %q", name)
	}
	rest, err = parseLabels(line[brace+1:])
	return name, rest, err
}

// parseLabels consumes `name="value",...}` and returns what follows the brace.
func parseLabels(s string) (rest string, err error) {
	for {
		eq := strings.IndexByte(s, '=')
		if eq <= 0 {
			return "", fmt.Errorf("malformed label block near %q", s)
		}
		if !metricNameOK(s[:eq]) {
			return "", fmt.Errorf("bad label name %q", s[:eq])
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return "", fmt.Errorf("label value must be quoted near %q", s)
		}
		s = s[1:]
		// Scan to the closing quote, honoring backslash escapes.
		i := 0
		for {
			if i >= len(s) {
				return "", fmt.Errorf("unterminated label value")
			}
			if s[i] == '\\' {
				if i+1 >= len(s) {
					return "", fmt.Errorf("dangling escape in label value")
				}
				switch s[i+1] {
				case '\\', '"', 'n':
				default:
					return "", fmt.Errorf("invalid escape \\%c in label value", s[i+1])
				}
				i += 2
				continue
			}
			if s[i] == '"' {
				break
			}
			i++
		}
		s = s[i+1:]
		if len(s) == 0 {
			return "", fmt.Errorf("label block not closed")
		}
		switch s[0] {
		case ',':
			s = s[1:]
		case '}':
			rest = strings.TrimPrefix(s[1:], " ")
			if rest == "" {
				return "", fmt.Errorf("sample line has no value")
			}
			return rest, nil
		default:
			return "", fmt.Errorf("expected ',' or '}' near %q", s)
		}
	}
}
