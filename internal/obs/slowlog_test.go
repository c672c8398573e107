package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"testing"
	"time"
)

// TestSlowLogThreshold checks only over-threshold operations are logged, as
// one JSON line carrying the span tree under slow_op.trace.
func TestSlowLogThreshold(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	sl := NewSlowLog(logger, 10*time.Millisecond)

	sl.Observe("request", "GET /fast", 2*time.Millisecond, nil)
	if buf.Len() != 0 || sl.Logged() != 0 {
		t.Fatalf("fast operation was logged: %s", buf.String())
	}

	tr := NewTracer(1)
	span := tr.Start("GET /slow")
	span.Child(KindStep, "step.x").End()
	span.End()
	sl.Observe("request", "GET /slow", 50*time.Millisecond, span)
	if sl.Logged() != 1 {
		t.Fatalf("Logged = %d, want 1", sl.Logged())
	}

	var line struct {
		Level  string `json:"level"`
		Msg    string `json:"msg"`
		SlowOp struct {
			Kind        string   `json:"kind"`
			Name        string   `json:"name"`
			DurationMs  float64  `json:"duration_ms"`
			ThresholdMs float64  `json:"threshold_ms"`
			Trace       SpanJSON `json:"trace"`
		} `json:"slow_op"`
	}
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("slow-op line is not one JSON document: %v\n%s", err, buf.String())
	}
	if line.Level != "WARN" || line.Msg != "slow operation" {
		t.Errorf("level=%q msg=%q", line.Level, line.Msg)
	}
	o := line.SlowOp
	if o.Kind != "request" || o.Name != "GET /slow" || o.DurationMs != 50 || o.ThresholdMs != 10 {
		t.Errorf("slow_op fields = %+v", o)
	}
	if o.Trace.Name != "GET /slow" || len(o.Trace.Children) != 1 {
		t.Errorf("slow_op trace missing span tree: %+v", o.Trace)
	}
}

// TestSlowLogDisabled covers both disabled constructions and the nil no-op.
func TestSlowLogDisabled(t *testing.T) {
	if NewSlowLog(nil, time.Second) != nil {
		t.Error("nil logger should disable the slow log")
	}
	if NewSlowLog(slog.Default(), 0) != nil {
		t.Error("zero threshold should disable the slow log")
	}
	var sl *SlowLog
	sl.Observe("request", "GET /x", time.Hour, nil) // must not panic
	if sl.Logged() != 0 {
		t.Error("nil slow log reported activity")
	}
}
