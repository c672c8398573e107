package core_test

import (
	"testing"

	"aware/internal/census"
	"aware/internal/core"
	"aware/internal/dataset"
	"aware/internal/stats"
)

// TestHoldoutReplayLogValidatesEveryStepKind records an exploration log with
// five distinct step kinds over the synthetic census and re-validates it on a
// hold-out split: the acceptance criterion for the generalized Section 4.1
// procedure (the old CompareMeans path could only re-validate mean
// comparisons).
func TestHoldoutReplayLogValidatesEveryStepKind(t *testing.T) {
	tab, err := census.Generate(census.Config{Rows: 8000, Seed: 3, SignalStrength: 1})
	if err != nil {
		t.Fatal(err)
	}
	rich := dataset.Equals{Column: census.ColSalaryOver50K, Value: "true"}
	steps := []core.Step{
		core.AddVisualization{Target: census.ColGender, Filter: rich},                     // rule 2
		core.AddVisualization{Target: census.ColGender, Filter: dataset.Not{Inner: rich}}, // rule 2
		core.CompareVisualizations{A: 1, B: 2},                                            // rule 3
		core.AddVisualization{Target: census.ColAge, Filter: rich},                        // rule 2, numeric target
		core.AddVisualization{Target: census.ColAge, Filter: dataset.Not{Inner: rich}},    // rule 2, numeric target
		core.CompareMeans{Attribute: census.ColAge, A: 3, B: 4},                           // t-test
		core.CompareDistributions{Attribute: census.ColHoursPerWeek, A: 3, B: 4},          // KS
		core.AddVisualization{Target: census.ColEducation},                                // descriptive
		core.TestAgainstExpectation{Visualization: 5, Expected: map[string]float64{"HS": 1, "Bachelor": 1, "Master": 1, "PhD": 1}},
		core.Star{Hypothesis: 3, Starred: true},
	}
	kinds := make(map[string]bool)
	for _, s := range steps {
		kinds[s.Kind()] = true
	}
	if len(kinds) < 4 {
		t.Fatalf("the scripted log only has %d distinct step kinds, want >= 4", len(kinds))
	}

	// Record the log on the full data first — the scenario of a user who
	// explored and now wants independent confirmation.
	sess, err := core.Replay(tab, core.Options{}, steps)
	if err != nil {
		t.Fatal(err)
	}
	recorded := core.StepsFromLog(sess.Log())
	if len(recorded) != len(steps) {
		t.Fatalf("journal has %d steps, want %d", len(recorded), len(steps))
	}

	hv, err := core.NewHoldoutValidator(tab, 0.5, 0.05, stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	replay, err := hv.ReplayLog(core.Options{}, recorded)
	if err != nil {
		t.Fatal(err)
	}
	if replay.Alpha != 0.05 {
		t.Errorf("alpha = %v", replay.Alpha)
	}
	// The log creates 7 hypotheses (5 rule-2, 1 superseded pair folded into
	// rule 3 and the t-test, the KS test, the expectation test).
	if len(replay.Hypotheses) != len(sess.Hypotheses()) {
		t.Fatalf("replay reports %d hypotheses, session has %d", len(replay.Hypotheses), len(sess.Hypotheses()))
	}
	validatedKinds := make(map[string]bool)
	for _, hvn := range replay.Hypotheses {
		if hvn.Seq == 0 || hvn.Kind == "" {
			t.Errorf("hypothesis %d not mapped back to a journal entry: %+v", hvn.HypothesisID, hvn)
		}
		if !hvn.Validated {
			t.Errorf("hypothesis %d not validated (wealth should not run out here)", hvn.HypothesisID)
		}
		if hvn.Exploration.Method == "" || hvn.Validation.Method == "" {
			t.Errorf("hypothesis %d missing test results", hvn.HypothesisID)
		}
		if hvn.Confirmed != (hvn.Exploration.PValue <= 0.05 && hvn.Validation.PValue <= 0.05 && hvn.Validated) {
			t.Errorf("hypothesis %d confirmation inconsistent with its p-values", hvn.HypothesisID)
		}
		validatedKinds[hvn.Kind] = true
	}
	if len(validatedKinds) < 4 {
		t.Errorf("re-validated only %d distinct step kinds (%v), want >= 4", len(validatedKinds), validatedKinds)
	}
	if replay.ActiveTotal == 0 {
		t.Error("no active hypotheses in the replay")
	}
	if replay.Confirmed == 0 {
		// The planted census associations are strong; at least the
		// gender/salary comparison should survive a 4000-row half.
		t.Error("no hypothesis was confirmed on the hold-out split")
	}
	if replay.Confirmed > replay.ActiveTotal {
		t.Errorf("confirmed %d > active %d", replay.Confirmed, replay.ActiveTotal)
	}
}

// TestHoldoutReplayLogToleratesHalfOnlyFailures pins the prefix semantics: a
// recorded step that fails on a half-size split (here: a filter matching a
// single row of the full table, so at least one half has no support for it)
// stops that half's replay at the failing step instead of failing the whole
// validation, and the per-half applied counts expose where each stopped.
func TestHoldoutReplayLogToleratesHalfOnlyFailures(t *testing.T) {
	const n = 400
	group := make([]string, n)
	marker := make([]string, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			group[i] = "a"
		} else {
			group[i] = "b"
		}
		marker[i] = "common"
	}
	marker[17] = "rare" // exactly one row: after any split, one half has none
	tab, err := dataset.NewTable(
		dataset.NewCategoricalColumn("group", group),
		dataset.NewCategoricalColumn("marker", marker),
	)
	if err != nil {
		t.Fatal(err)
	}
	steps := []core.Step{
		core.AddVisualization{Target: "group", Filter: dataset.Equals{Column: "marker", Value: "common"}},
		core.AddVisualization{Target: "group", Filter: dataset.Equals{Column: "marker", Value: "rare"}},
		core.AddVisualization{Target: "marker", Filter: dataset.Equals{Column: "group", Value: "a"}},
	}

	hv, err := core.NewHoldoutValidator(tab, 0.5, 0.05, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	replay, err := hv.ReplayLog(core.Options{}, steps)
	if err != nil {
		t.Fatalf("ReplayLog must tolerate half-only step failures, got %v", err)
	}
	rare, err := hv.Exploration().Where(dataset.Equals{Column: "marker", Value: "rare"})
	if err != nil {
		t.Fatal(err)
	}
	rareInExploration := rare.Count()
	if replay.ValidationApplied > replay.ExplorationApplied {
		t.Errorf("validation applied %d > exploration applied %d", replay.ValidationApplied, replay.ExplorationApplied)
	}
	if rareInExploration == 0 {
		// The rare row went to the validation half: exploration stops at the
		// degenerate step 2.
		if replay.ExplorationApplied != 1 {
			t.Errorf("exploration applied %d steps, want 1", replay.ExplorationApplied)
		}
		if len(replay.Hypotheses) != 1 {
			t.Errorf("replay reports %d hypotheses, want 1", len(replay.Hypotheses))
		}
	} else {
		// The rare row is in the exploration half: step 2 runs there on one
		// row, and the validation half (zero rare rows) stops at it.
		if replay.ExplorationApplied < 2 {
			t.Errorf("exploration applied %d steps, want >= 2", replay.ExplorationApplied)
		}
		if replay.ValidationApplied != 1 {
			t.Errorf("validation applied %d steps, want 1", replay.ValidationApplied)
		}
		for _, h := range replay.Hypotheses[1:] {
			if h.Validated {
				t.Errorf("hypothesis %d past the validation prefix reported as validated", h.HypothesisID)
			}
		}
	}
	// The first hypothesis is comparable on both halves either way.
	if len(replay.Hypotheses) == 0 || !replay.Hypotheses[0].Validated {
		t.Fatalf("first hypothesis not validated: %+v", replay.Hypotheses)
	}
}
