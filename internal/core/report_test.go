package core_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"aware/internal/census"
	"aware/internal/core"
	"aware/internal/dataset"
)

func TestSessionReportRoundTrip(t *testing.T) {
	s := newSession(t, testCensus(t))
	rich := dataset.Equals{Column: census.ColSalaryOver50K, Value: "true"}
	hyp := mustApply(t, s, core.AddVisualization{Target: census.ColGender, Filter: rich}).Hypothesis
	mustApply(t, s, core.Star{Hypothesis: hyp.ID, Starred: true})
	mustApply(t, s, core.AddVisualization{Target: census.ColMaritalStatus, Filter: dataset.Equals{Column: census.ColEducation, Value: "PhD"}})

	now := time.Date(2026, 6, 16, 12, 0, 0, 0, time.UTC)
	report := s.Report(now)
	if report.GeneratedAt != "2026-06-16T12:00:00Z" {
		t.Errorf("timestamp %q", report.GeneratedAt)
	}
	if report.Alpha != 0.05 || report.Policy == "" {
		t.Errorf("report header %+v", report)
	}
	if len(report.Hypotheses) != 2 {
		t.Fatalf("hypotheses in report: %d", len(report.Hypotheses))
	}
	if report.Discoveries < 1 || report.StarredDiscoveries != 1 {
		t.Errorf("counters %+v", report)
	}
	first := report.Hypotheses[0]
	if !first.Rejected || !first.Starred || first.PValue > 0.05 {
		t.Errorf("first entry %+v", first)
	}
	if first.Source != "rule-2 (filter vs population)" || first.Status != "active" {
		t.Errorf("source/status %q %q", first.Source, first.Status)
	}

	raw, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"alpha":0.05`) {
		t.Error("JSON missing alpha")
	}
	back, err := core.ReadReport(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if back.Discoveries != report.Discoveries || len(back.Hypotheses) != len(report.Hypotheses) {
		t.Error("round trip mismatch")
	}
	if back.Hypotheses[0].Null != report.Hypotheses[0].Null {
		t.Error("entry text mismatch after round trip")
	}
	if _, err := core.ReadReport(strings.NewReader("{not json")); err == nil {
		t.Error("invalid JSON should error")
	}
}

func TestReportEncodesInfiniteMultiplierAsSentinel(t *testing.T) {
	// A hypothesis with zero observed effect has an unbounded n_H1; the JSON
	// export must encode it as -1 rather than failing on +Inf.
	s := newSession(t, testCensus(t))
	rich := dataset.Equals{Column: census.ColSalaryOver50K, Value: "true"}
	hyp := mustApply(t, s, core.AddVisualization{Target: census.ColGender, Filter: rich}).Hypothesis
	hyp.DataMultiplier = inf()
	report := s.Report(time.Unix(0, 0))
	if report.Hypotheses[0].DataMultiplier != -1 {
		t.Errorf("multiplier sentinel = %v", report.Hypotheses[0].DataMultiplier)
	}
	if _, err := json.Marshal(report); err != nil {
		t.Fatalf("encoding the report with the sentinel: %v", err)
	}
}

func inf() float64 { return 1 / zero() }

func zero() float64 { return 0 }
