package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"aware/internal/dataset"
)

// This file tests the relational steps (derive_column, join_dataset,
// group_by): their wire codec, their session semantics against direct
// dataset-layer evaluation, and a second golden replay log that exercises all
// three so codec or dispatch drift on the relational path shows up as a byte
// diff.

const (
	goldenRelationalLogPath    = "testdata/relational_log.json"
	goldenRelationalReportPath = "testdata/relational_report.json"
)

// stepTestCatalog resolves the one dimension table the relational tests join
// against: one row per group plus an unmatched extra.
type stepTestCatalog struct {
	tables map[string]*dataset.Table
	caches map[string]*dataset.SelectionCache
}

func newStepTestCatalog(t *testing.T) *stepTestCatalog {
	t.Helper()
	dim, err := dataset.NewTable(
		dataset.NewCategoricalColumn("name", []string{"a", "b", "c"}),
		dataset.NewFloatColumn("weight", []float64{1.5, 2.5, 9}),
		dataset.NewCategoricalColumn("label", []string{"control", "treatment", "unused"}),
	)
	if err != nil {
		t.Fatal(err)
	}
	return &stepTestCatalog{
		tables: map[string]*dataset.Table{"groups": dim},
		caches: map[string]*dataset.SelectionCache{"groups": dataset.NewSelectionCache(dim)},
	}
}

func (c *stepTestCatalog) Dataset(name string) (*dataset.Table, *dataset.SelectionCache, error) {
	tab, ok := c.tables[name]
	if !ok {
		return nil, nil, errors.New("core test catalog: no dataset " + name)
	}
	return tab, c.caches[name], nil
}

// relationalSteps is the scripted exploration behind the relational golden
// log: derive a bucketed column, join the dimension, then raise group-by
// hypotheses over base, derived and joined columns.
func relationalSteps() []Step {
	return []Step{
		AddVisualization{Target: "color", Filter: dataset.Equals{Column: "group", Value: "b"}},
		DeriveColumn{Name: "x_bucket", Expr: dataset.Bucket{
			Arg:   dataset.Binary{Op: dataset.OpMul, L: dataset.Col{Name: "x"}, R: dataset.Const{Value: 10}},
			Width: 5,
		}},
		JoinDataset{Dataset: "groups", LeftKey: "group", RightKey: "name", Prefix: "g_"},
		GroupByHypothesis{RowAttr: "group", ColAttr: "color"},
		GroupByHypothesis{RowAttr: "g_label", ColAttr: "x_bucket",
			Filter: dataset.GreaterThan{Column: "g_weight", Threshold: 1}},
		Star{Hypothesis: 2, Starred: true},
	}
}

// TestStepJSONRoundTripRelationalKinds extends the codec round-trip coverage
// to the three relational step kinds.
func TestStepJSONRoundTripRelationalKinds(t *testing.T) {
	steps := []Step{
		DeriveColumn{Name: "wage_decade", Expr: dataset.Bucket{Arg: dataset.Col{Name: "wage"}, Width: 10}},
		DeriveColumn{Name: "revenue", Expr: dataset.Binary{
			Op: dataset.OpMul, L: dataset.Col{Name: "amount"}, R: dataset.Col{Name: "price"},
		}},
		JoinDataset{Dataset: "regions", LeftKey: "region", RightKey: "name", Prefix: "region_"},
		JoinDataset{Dataset: "regions", LeftKey: "region", RightKey: "name"}, // empty prefix
		GroupByHypothesis{RowAttr: "education", ColAttr: "gender"},
		GroupByHypothesis{RowAttr: "education", ColAttr: "gender",
			Filter: dataset.Range{Column: "age", Low: 30, High: 40}},
	}
	for _, step := range steps {
		t.Run(step.Kind(), func(t *testing.T) {
			decoded := roundTripStep(t, step)
			switch want := step.(type) {
			case JoinDataset:
				if decoded.(JoinDataset) != want {
					t.Errorf("JoinDataset round trip: %#v -> %#v", want, decoded)
				}
			case DeriveColumn:
				got := decoded.(DeriveColumn)
				if got.Name != want.Name || got.Expr.Describe() != want.Expr.Describe() {
					t.Errorf("DeriveColumn round trip: %#v -> %#v", want, got)
				}
			case GroupByHypothesis:
				got := decoded.(GroupByHypothesis)
				if got.RowAttr != want.RowAttr || got.ColAttr != want.ColAttr {
					t.Errorf("GroupByHypothesis round trip: %#v -> %#v", want, got)
				}
				if (got.Filter == nil) != (want.Filter == nil) {
					t.Errorf("filter presence changed: %#v -> %#v", want, got)
				}
			}
		})
	}
}

// TestUnmarshalRelationalStepStrictness rejects malformed relational steps.
func TestUnmarshalRelationalStepStrictness(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"derive without name", `{"op": "derive_column", "expression": {"expr": "col", "column": "x"}}`, "requires a name"},
		{"derive without expression", `{"op": "derive_column", "name": "y"}`, "requires an expression"},
		{"derive with bad expression", `{"op": "derive_column", "name": "y", "expression": {"expr": "mod"}}`, "unknown expression"},
		{"join without dataset", `{"op": "join_dataset", "left_key": "a", "right_key": "b"}`, "requires a dataset"},
		{"join without keys", `{"op": "join_dataset", "dataset": "d"}`, "left_key and right_key"},
		{"group_by without attributes", `{"op": "group_by", "row": "education"}`, "row and col"},
		{"group_by with bad predicate", `{"op": "group_by", "row": "a", "col": "b", "predicate": {"type": "nope"}}`, "unknown predicate type"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := UnmarshalStep([]byte(tc.in)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("UnmarshalStep(%s) = %v, want error containing %q", tc.in, err, tc.want)
			}
		})
	}
}

// TestRelationalStepsMatchDirectEvaluation drives the three relational steps
// through Session.Apply and checks the session's table against the same
// operations evaluated directly at the dataset layer.
func TestRelationalStepsMatchDirectEvaluation(t *testing.T) {
	tab := stepTestTable(t)
	cat := newStepTestCatalog(t)
	sess, err := NewSession(tab, Options{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}

	expr := dataset.Bucket{
		Arg:   dataset.Binary{Op: dataset.OpMul, L: dataset.Col{Name: "x"}, R: dataset.Const{Value: 10}},
		Width: 5,
	}
	mustApply(t, sess, DeriveColumn{Name: "x_bucket", Expr: expr})
	wantDerived, err := tab.Derive("x_bucket", expr)
	if err != nil {
		t.Fatal(err)
	}
	gotVals, err := sess.Data().Floats("x_bucket")
	if err != nil {
		t.Fatal(err)
	}
	wantVals, _ := wantDerived.Floats("x_bucket")
	for i := range gotVals {
		if gotVals[i] != wantVals[i] {
			t.Fatalf("derived row %d: %v, want %v", i, gotVals[i], wantVals[i])
		}
	}

	mustApply(t, sess, JoinDataset{Dataset: "groups", LeftKey: "group", RightKey: "name", Prefix: "g_"})
	lv, err := dataset.NewView(wantDerived, dataset.FullSelection(wantDerived.NumRows()))
	if err != nil {
		t.Fatal(err)
	}
	dim, _, err := cat.Dataset("groups")
	if err != nil {
		t.Fatal(err)
	}
	rv, err := dataset.NewView(dim, dataset.FullSelection(dim.NumRows()))
	if err != nil {
		t.Fatal(err)
	}
	wantJoined, err := dataset.HashJoin(lv, rv, "group", "name", "g_")
	if err != nil {
		t.Fatal(err)
	}
	got := sess.Data()
	if got.NumRows() != wantJoined.NumRows() {
		t.Fatalf("joined session table has %d rows, want %d", got.NumRows(), wantJoined.NumRows())
	}
	gn, wn := got.ColumnNames(), wantJoined.ColumnNames()
	if len(gn) != len(wn) {
		t.Fatalf("joined session table has columns %v, want %v", gn, wn)
	}
	for i := range gn {
		if gn[i] != wn[i] {
			t.Fatalf("joined column %d is %q, want %q", i, gn[i], wn[i])
		}
	}
	gw, err := got.Floats("g_weight")
	if err != nil {
		t.Fatal(err)
	}
	ww, _ := wantJoined.Floats("g_weight")
	for i := range gw {
		if gw[i] != ww[i] {
			t.Fatalf("g_weight row %d: %v, want %v", i, gw[i], ww[i])
		}
	}

	// The group-by hypothesis over the joined table: support must equal the
	// filter's selectivity on the joined rows.
	filter := dataset.GreaterThan{Column: "g_weight", Threshold: 1}
	hyp := mustApply(t, sess, GroupByHypothesis{RowAttr: "group", ColAttr: "color", Filter: filter}).Hypothesis
	sel, err := wantJoined.Where(filter)
	if err != nil {
		t.Fatal(err)
	}
	if hyp.SupportSize != sel.Count() {
		t.Fatalf("group-by support %d, want the filter's %d matching rows", hyp.SupportSize, sel.Count())
	}
	if hyp.Source != SourceUser {
		t.Fatalf("group-by hypothesis source %v, want SourceUser", hyp.Source)
	}

	// Every applied relational step must be journaled and replayable.
	replayed, err := Replay(tab, Options{Catalog: cat}, StepsFromLog(sess.Log()))
	if err != nil {
		t.Fatal(err)
	}
	if rn := replayed.Data().NumRows(); rn != got.NumRows() {
		t.Fatalf("replayed table has %d rows, want %d", rn, got.NumRows())
	}
	if len(replayed.Hypotheses()) != len(sess.Hypotheses()) {
		t.Fatalf("replay recorded %d hypotheses, want %d", len(replayed.Hypotheses()), len(sess.Hypotheses()))
	}
}

// TestRelationalStepValidation pins the fail-before-mutate contract: invalid
// relational steps error without touching the table or the journal.
func TestRelationalStepValidation(t *testing.T) {
	tab := stepTestTable(t)
	sess := mustSession(t, tab) // no catalog
	cases := []struct {
		name string
		step Step
		want string
	}{
		{"join without catalog", JoinDataset{Dataset: "groups", LeftKey: "group", RightKey: "name"}, "catalog"},
		{"derive without name", DeriveColumn{Expr: dataset.Col{Name: "x"}}, "requires a column name"},
		{"derive without expression", DeriveColumn{Name: "y"}, "requires an expression"},
		{"derive duplicate column", DeriveColumn{Name: "x", Expr: dataset.Col{Name: "x"}}, "already exists"},
		{"derive categorical operand", DeriveColumn{Name: "y", Expr: dataset.Col{Name: "color"}}, "not numeric"},
		{"group-by missing attrs", GroupByHypothesis{RowAttr: "group"}, "row and column"},
		{"group-by unknown column", GroupByHypothesis{RowAttr: "group", ColAttr: "nope"}, "nope"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cols := sess.Data().NumColumns()
			journal := len(sess.Log())
			if _, err := sess.Apply(tc.step); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Apply = %v, want error containing %q", err, tc.want)
			}
			if sess.Data().NumColumns() != cols {
				t.Error("failed step changed the session table")
			}
			if len(sess.Log()) != journal {
				t.Error("failed step was journaled")
			}
		})
	}
}

// TestGoldenRelationalLogReplay is the relational golden-file gate: the
// committed log of relational steps must replay — through the JSON codec and
// a session catalog — to the exact committed report. Regenerate with:
// go test ./internal/core -run GoldenRelational -update
func TestGoldenRelationalLogReplay(t *testing.T) {
	tab := stepTestTable(t)
	cat := newStepTestCatalog(t)
	opts := Options{Catalog: cat}

	if *updateGolden {
		sess, err := NewSession(tab, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, step := range relationalSteps() {
			if _, err := sess.Apply(step); err != nil {
				t.Fatalf("step %d: %v", i+1, err)
			}
		}
		logJSON, err := json.MarshalIndent(sess.Log(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenRelationalLogPath, append(logJSON, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenRelationalReportPath, reportJSON(t, sess), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	rawLog, err := os.ReadFile(goldenRelationalLogPath)
	if err != nil {
		t.Fatalf("reading golden relational log (regenerate with -update): %v", err)
	}
	var log []AppliedStep
	if err := json.Unmarshal(rawLog, &log); err != nil {
		t.Fatalf("parsing golden relational log: %v", err)
	}
	if len(log) != len(relationalSteps()) {
		t.Fatalf("golden relational log has %d steps, want %d", len(log), len(relationalSteps()))
	}

	sess, err := Replay(tab, opts, StepsFromLog(log))
	if err != nil {
		t.Fatalf("replaying golden relational log: %v", err)
	}
	got := reportJSON(t, sess)
	want, err := os.ReadFile(goldenRelationalReportPath)
	if err != nil {
		t.Fatalf("reading golden relational report (regenerate with -update): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("replayed report differs from golden file:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	gotLog, err := json.MarshalIndent(sess.Log(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(append(gotLog, '\n')) != string(rawLog) {
		t.Error("replayed journal differs from the golden relational log")
	}
}

// TestJoinKeepsGroupByPValuesValid holds a join step to the mFDR bound's
// premise, a valid p-value. A fact table of 2,000 rows carries independent
// attributes a (2 levels) and b (3 levels) and a key over 20 values; each of
// 400 seeds joins it to a dimension and tests a against b by group-by. With
// two dimension rows per key the join would copy every row, and the χ²
// statistic with it, so every such join is refused, before the session
// changes. With one row per key the null rejection rate at 0.05 stays within
// three binomial standard errors of 0.05.
func TestJoinKeepsGroupByPValuesValid(t *testing.T) {
	const (
		seeds = 400
		rows  = 2000
		keys  = 20
		alpha = 0.05
	)
	keyNames := make([]string, keys)
	for i := range keyNames {
		keyNames[i] = fmt.Sprintf("k%02d", i)
	}
	dimension := func(perKey int) *dataset.Table {
		var names, tags []string
		for _, k := range keyNames {
			for j := 0; j < perKey; j++ {
				names = append(names, k)
				tags = append(tags, fmt.Sprintf("t%d", j))
			}
		}
		dim, err := dataset.NewTable(dataset.NewCategoricalColumn("name", names), dataset.NewCategoricalColumn("tag", tags))
		if err != nil {
			t.Fatal(err)
		}
		return dim
	}
	cat := &stepTestCatalog{tables: map[string]*dataset.Table{"unique": dimension(1), "doubled": dimension(2)}}
	cat.caches = map[string]*dataset.SelectionCache{}
	for name, tab := range cat.tables {
		cat.caches[name] = dataset.NewSelectionCache(tab)
	}
	rejected := 0
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b, k := make([]string, rows), make([]string, rows), make([]string, rows)
		for i := range a {
			a[i] = []string{"a0", "a1"}[rng.Intn(2)]
			b[i] = []string{"b0", "b1", "b2"}[rng.Intn(3)]
			k[i] = keyNames[rng.Intn(keys)]
		}
		fact, err := dataset.NewTable(dataset.NewCategoricalColumn("a", a), dataset.NewCategoricalColumn("b", b),
			dataset.NewCategoricalColumn("key", k))
		if err != nil {
			t.Fatal(err)
		}
		sess, err := NewSession(fact, Options{Catalog: cat})
		if err != nil {
			t.Fatal(err)
		}
		_, err = sess.Apply(JoinDataset{Dataset: "doubled", LeftKey: "key", RightKey: "name", Prefix: "d_"})
		if !errors.Is(err, dataset.ErrJoinFansOut) {
			t.Fatalf("seed %d: joining two rows per key = %v, want ErrJoinFansOut", seed, err)
		}
		if sess.Data() != fact || len(sess.Log()) != 0 {
			t.Fatalf("seed %d: the refused join changed the session", seed)
		}
		mustApply(t, sess, JoinDataset{Dataset: "unique", LeftKey: "key", RightKey: "name", Prefix: "d_"})
		if sess.Data().NumRows() != rows {
			t.Fatalf("seed %d: joining one row per key kept %d of %d rows", seed, sess.Data().NumRows(), rows)
		}
		if mustApply(t, sess, GroupByHypothesis{RowAttr: "a", ColAttr: "b"}).Hypothesis.Test.PValue <= alpha {
			rejected++
		}
	}
	rate := float64(rejected) / seeds
	if se := math.Sqrt(alpha * (1 - alpha) / seeds); math.Abs(rate-alpha) > 3*se {
		t.Errorf("null P(p <= %v) = %.4f over %d seeds, want within %.4f of %v", alpha, rate, seeds, 3*se, alpha)
	}
}
