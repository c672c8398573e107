package core_test

import (
	"testing"

	"aware/internal/census"
	"aware/internal/core"
	"aware/internal/dataset"
)

// The TestAllocs tests pin the allocation counts of the interactive loop's
// hot operations. Counts, unlike timings, are deterministic, so each pin is
// the count measured when it was set plus 20 %, rounded up: crossing one is
// a regression to explain, and a lasting drop is a pin to lower. They run
// without -race only; the race runtime's allocations are not the code's.

// allocsCensus is a 20k-row census on a one-worker pool, so no count
// depends on how many CPUs the morsels could have spread over.
func allocsCensus(t *testing.T) *dataset.Table {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are pinned without -race")
	}
	table, err := census.Generate(census.Config{Rows: 20000, Seed: 1, SignalStrength: 1})
	if err != nil {
		t.Fatal(err)
	}
	pool := dataset.NewPool(1)
	t.Cleanup(pool.Close)
	table.SetPool(pool)
	return table
}

// pinAllocs fails when fn allocates more than pin objects per call, averaged
// over runs calls after one warm-up call.
func pinAllocs(t *testing.T, op string, runs int, pin float64, fn func()) {
	t.Helper()
	if got := testing.AllocsPerRun(runs, fn); got > pin {
		t.Errorf("%s allocates %v objects per call, pinned at %v", op, got, pin)
	}
}

func TestAllocsGauge(t *testing.T) {
	table := allocsCensus(t)
	sess, err := core.NewSession(table, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A session with a hypothesis history the gauge has to walk.
	for i := 0; i < 10; i++ {
		lo := float64(20 + 3*i)
		step := core.AddVisualization{Target: census.ColGender, Filter: dataset.Range{Column: census.ColAge, Low: lo, High: lo + 5}}
		if _, err := sess.Apply(step); err != nil {
			t.Fatal(err)
		}
	}
	pinAllocs(t, "Session.Gauge", 20, 4, func() { sess.Gauge() }) // measured 3
}

// TestAllocsStepCodec pins the step codec averaged over a recorded
// user-study workflow, the mix of steps a journal writes and replays.
func TestAllocsStepCodec(t *testing.T) {
	table := allocsCensus(t)
	workflow, err := census.GenerateWorkflow(table, census.WorkflowConfig{Hypotheses: 40, Seed: 3, MaxChainDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Record up to the first failing step: CoreSteps precomputes
	// visualization IDs, so the prefix is what replays cleanly.
	recorder, err := core.NewSession(table, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range workflow.CoreSteps() {
		if _, err := recorder.Apply(step); err != nil {
			break
		}
	}
	steps := core.StepsFromLog(recorder.Log())
	lines := make([][]byte, len(steps))
	for i, step := range steps {
		if lines[i], err = core.MarshalStep(step); err != nil {
			t.Fatal(err)
		}
	}
	// The warm-up call plus len(steps) runs make exactly one pass.
	i := 0
	pinAllocs(t, "MarshalStep", len(steps), 6, func() { // measured 5
		_, _ = core.MarshalStep(steps[i%len(steps)])
		i++
	})
	i = 0
	pinAllocs(t, "UnmarshalStep", len(steps), 39, func() { // measured 32
		_, _ = core.UnmarshalStep(lines[i%len(lines)])
		i++
	})
}

// TestAllocsCachedStep pins a served session's first step: a new session over
// a shared selection cache that already holds the step's filter, as when one
// analyst repeats a chart another has drawn.
func TestAllocsCachedStep(t *testing.T) {
	table := allocsCensus(t)
	filter := dataset.And{Terms: []dataset.Predicate{
		dataset.Equals{Column: census.ColSalaryOver50K, Value: "true"},
		dataset.Range{Column: census.ColAge, Low: 30, High: 50},
	}}
	cache := dataset.NewSelectionCache(table)
	if _, err := cache.Where(filter); err != nil {
		t.Fatal(err)
	}
	step := core.AddVisualization{Target: census.ColGender, Filter: filter}
	pinAllocs(t, "NewSession + cached AddVisualization", 20, 84, func() { // measured 70
		sess, err := core.NewSession(table, core.Options{Selections: cache})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Apply(step); err != nil {
			t.Fatal(err)
		}
	})
}
