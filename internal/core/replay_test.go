package core

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden replay files")

const (
	goldenLogPath    = "testdata/replay_log.json"
	goldenReportPath = "testdata/replay_report.json"
)

// goldenTime pins the report timestamp so the golden bytes are stable.
var goldenTime = time.Unix(1700000000, 0)

// reportJSON renders the session's report at goldenTime in the golden files'
// form: two-space indented JSON ending in a newline.
func reportJSON(t *testing.T, s *Session) []byte {
	t.Helper()
	b, err := json.MarshalIndent(s.Report(goldenTime), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestGoldenLogReplaysToGoldenReport is the golden-file satellite: a recorded
// exploration log, committed as JSON, must replay to the exact committed
// Report — any change to the step codec, the dispatch layer, the statistics
// or the α-investing arithmetic that altered replay semantics shows up as a
// byte diff here. Regenerate with: go test ./internal/core -run Golden -update
func TestGoldenLogReplaysToGoldenReport(t *testing.T) {
	tab := stepTestTable(t)

	if *updateGolden {
		sess := mustSession(t, tab)
		for i, step := range scriptedSteps() {
			if _, err := sess.Apply(step); err != nil {
				t.Fatalf("step %d: %v", i+1, err)
			}
		}
		logJSON, err := json.MarshalIndent(sess.Log(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenLogPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenLogPath, append(logJSON, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenReportPath, reportJSON(t, sess), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	rawLog, err := os.ReadFile(goldenLogPath)
	if err != nil {
		t.Fatalf("reading golden log (regenerate with -update): %v", err)
	}
	var log []AppliedStep
	if err := json.Unmarshal(rawLog, &log); err != nil {
		t.Fatalf("parsing golden log: %v", err)
	}
	if len(log) == 0 {
		t.Fatal("golden log is empty")
	}

	sess, err := Replay(tab, Options{}, StepsFromLog(log))
	if err != nil {
		t.Fatalf("replaying golden log: %v", err)
	}
	got := reportJSON(t, sess)
	want, err := os.ReadFile(goldenReportPath)
	if err != nil {
		t.Fatalf("reading golden report (regenerate with -update): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("replayed report differs from golden file:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// The replayed journal must also round-trip to the same bytes as the
	// golden log (IDs included).
	gotLog, err := json.MarshalIndent(sess.Log(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(append(gotLog, '\n')) != string(rawLog) {
		t.Error("replayed journal differs from the golden log")
	}
}
