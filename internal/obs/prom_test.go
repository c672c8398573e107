package obs

import (
	"strings"
	"testing"
	"time"

	"aware/internal/obs/obstest"
)

// TestExpositionGolden locks the writer's output byte for byte: one counter
// family with an escaped label value, one gauge, one histogram. Any format
// drift (spacing, escaping, bucket order) breaks operators' scrape configs,
// so it must show up as a diff here.
func TestExpositionGolden(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01})
	h.Observe(500 * time.Microsecond) // -> le=0.001
	h.Observe(5 * time.Millisecond)   // -> le=0.01
	h.Observe(2 * time.Second)        // -> +Inf overflow

	var w ExpositionWriter
	w.Header("app_requests_total", "Requests served.", "counter")
	w.Sample("app_requests_total", L{Label("endpoint", `GET /x`), Label("note", "a\\b\"c\nd")}, 42)
	w.Header("app_up", "Whether the app is up.", "gauge")
	w.Sample("app_up", nil, 1)
	w.Header("app_latency_seconds", "Request latency.", "histogram")
	w.Hist("app_latency_seconds", L{Label("endpoint", "GET /x")}, h.Snapshot())

	want := strings.Join([]string{
		`# HELP app_requests_total Requests served.`,
		`# TYPE app_requests_total counter`,
		`app_requests_total{endpoint="GET /x",note="a\\b\"c\nd"} 42`,
		`# HELP app_up Whether the app is up.`,
		`# TYPE app_up gauge`,
		`app_up 1`,
		`# HELP app_latency_seconds Request latency.`,
		`# TYPE app_latency_seconds histogram`,
		`app_latency_seconds_bucket{endpoint="GET /x",le="0.001"} 1`,
		`app_latency_seconds_bucket{endpoint="GET /x",le="0.01"} 2`,
		`app_latency_seconds_bucket{endpoint="GET /x",le="+Inf"} 3`,
		`app_latency_seconds_sum{endpoint="GET /x"} 2.0055`,
		`app_latency_seconds_count{endpoint="GET /x"} 3`,
		``,
	}, "\n")
	if got := w.String(); got != want {
		t.Errorf("exposition differs from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// The writer's own output must satisfy the validator CI runs.
	samples, err := obstest.ValidateExposition(w.String())
	if err != nil {
		t.Fatalf("golden exposition does not validate: %v", err)
	}
	if samples != 7 {
		t.Errorf("samples = %d, want 7", samples)
	}
}

func TestEscaping(t *testing.T) {
	if got, want := escapeHelp("a\\b\nc\"d"), `a\\b\nc"d`; got != want {
		t.Errorf("escapeHelp = %q, want %q", got, want)
	}
	if got, want := escapeLabel("a\\b\nc\"d"), `a\\b\nc\"d`; got != want {
		t.Errorf("escapeLabel = %q, want %q", got, want)
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := []struct {
		name string
		text string
	}{
		{"empty", ""},
		{"no samples", "# HELP a_b x\n# TYPE a_b counter\n"},
		{"undeclared family", "a_b 1\n"},
		{"bad metric name", "# TYPE 9bad counter\n9bad 1\n"},
		{"unknown type", "# TYPE a_b matrix\na_b 1\n"},
		{"unterminated label", "# TYPE a_b counter\na_b{x=\"y 1\n"},
		{"unquoted label", "# TYPE a_b counter\na_b{x=y} 1\n"},
		{"invalid escape", "# TYPE a_b counter\na_b{x=\"\\q\"} 1\n"},
		{"bad value", "# TYPE a_b counter\na_b{x=\"y\"} one\n"},
		{"missing value", "# TYPE a_b counter\na_b{x=\"y\"}\n"},
		{"bad timestamp", "# TYPE a_b counter\na_b 1 soon\n"},
		{"histogram suffix on counter", "# TYPE a_b counter\na_b_bucket{le=\"+Inf\"} 1\n"},
	}
	for _, tc := range cases {
		if _, err := obstest.ValidateExposition(tc.text); err == nil {
			t.Errorf("%s: ValidateExposition accepted %q", tc.name, tc.text)
		}
	}
}

func TestValidateExpositionAccepts(t *testing.T) {
	text := strings.Join([]string{
		`# HELP a_b some help`,
		`# TYPE a_b counter`,
		`a_b{x="y",z="w\"v"} 1`,
		`a_b 2.5e-3 1700000000000`,
		`# TYPE lat_s histogram`,
		`lat_s_bucket{le="+Inf"} 3`,
		`lat_s_sum 0.5`,
		`lat_s_count 3`,
		``,
	}, "\n")
	samples, err := obstest.ValidateExposition(text)
	if err != nil {
		t.Fatalf("ValidateExposition: %v", err)
	}
	if samples != 5 {
		t.Errorf("samples = %d, want 5", samples)
	}
}

// TestHistogramBucketSemantics pins the le (less-or-equal) boundary rule: an
// observation exactly on a bound lands in that bound's bucket, as Prometheus
// defines it.
func TestHistogramBucketSemantics(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	h.Observe(time.Millisecond)        // exactly 0.001 -> first bucket
	h.Observe(time.Millisecond + 1)    // just over -> second bucket
	h.Observe(100 * time.Millisecond)  // exactly 0.1 -> third bucket
	h.Observe(1500 * time.Millisecond) // -> overflow

	snap := h.Snapshot()
	want := []uint64{1, 1, 1, 1}
	for i, n := range want {
		if snap.Counts[i] != n {
			t.Errorf("bucket %d count = %d, want %d (counts %v)", i, snap.Counts[i], n, snap.Counts)
		}
	}
	wantSum := 0.001 + 0.001000001 + 0.1 + 1.5
	if diff := snap.Sum - wantSum; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("Sum = %v, want %v", snap.Sum, wantSum)
	}
}

func TestNewHistogramPanicsOnUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for unsorted bounds")
		}
	}()
	NewHistogram([]float64{0.1, 0.01})
}
