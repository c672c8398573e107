package core

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"aware/internal/dataset"
)

// roundTripStep marshals, unmarshals and re-marshals a step, requiring the
// two wire forms to be identical.
func roundTripStep(t *testing.T, step Step) Step {
	t.Helper()
	first, err := MarshalStep(step)
	if err != nil {
		t.Fatalf("MarshalStep(%#v): %v", step, err)
	}
	decoded, err := UnmarshalStep(first)
	if err != nil {
		t.Fatalf("UnmarshalStep(%s): %v", first, err)
	}
	second, err := MarshalStep(decoded)
	if err != nil {
		t.Fatalf("re-MarshalStep(%#v): %v", decoded, err)
	}
	if string(first) != string(second) {
		t.Errorf("round trip not lossless:\n first: %s\nsecond: %s", first, second)
	}
	if decoded.Kind() != step.Kind() {
		t.Errorf("kind changed: %q -> %q", step.Kind(), decoded.Kind())
	}
	return decoded
}

// TestStepJSONRoundTripEveryKind covers the whole closed step set, mirroring
// predjson_test for predicates.
func TestStepJSONRoundTripEveryKind(t *testing.T) {
	steps := []Step{
		AddVisualization{Target: "gender"},
		AddVisualization{Target: "gender", Filter: dataset.Equals{Column: "salary", Value: ">50k"}},
		CompareVisualizations{A: 1, B: 2},
		CompareMeans{Attribute: "age", A: 3, B: 4},
		CompareDistributions{Attribute: "hours", A: 2, B: 5},
		TestAgainstExpectation{Visualization: 1, Expected: map[string]float64{"Male": 3, "Female": 1, "Other": 0.05}},
		DeclareDescriptive{Visualization: 9},
		Star{Hypothesis: 4, Starred: true},
		Star{Hypothesis: 4, Starred: false},
	}
	for _, step := range steps {
		t.Run(step.Kind(), func(t *testing.T) {
			got := roundTripStep(t, step)
			if _, isStar := step.(Star); isStar {
				if got.(Star) != step.(Star) {
					t.Errorf("Star round trip: %#v -> %#v", step, got)
				}
			}
		})
	}
}

// TestStepJSONRoundTripEveryPredicateKind embeds each of the seven predicate
// types (including open-ended ranges) in an AddVisualization step.
func TestStepJSONRoundTripEveryPredicateKind(t *testing.T) {
	preds := map[string]dataset.Predicate{
		"equals": dataset.Equals{Column: "gender", Value: "Female"},
		"in":     dataset.In{Column: "education", Values: []string{"Master", "PhD"}},
		"range":  dataset.Range{Column: "age", Low: 30, High: 40},
		"range_open_ended": dataset.Range{
			Column: "age", Low: math.Inf(-1), High: math.Inf(1),
		},
		"gt":  dataset.GreaterThan{Column: "hours", Threshold: 45},
		"not": dataset.Not{Inner: dataset.Equals{Column: "gender", Value: "Male"}},
		"and": dataset.And{Terms: []dataset.Predicate{
			dataset.Equals{Column: "education", Value: "PhD"},
			dataset.GreaterThan{Column: "hours", Threshold: 40},
		}},
		"or": dataset.Or{Terms: []dataset.Predicate{
			dataset.Equals{Column: "marital", Value: "Never-Married"},
			dataset.Range{Column: "age", Low: 18, High: 25},
		}},
	}
	for name, pred := range preds {
		t.Run(name, func(t *testing.T) {
			decoded := roundTripStep(t, AddVisualization{Target: "gender", Filter: pred})
			av, ok := decoded.(AddVisualization)
			if !ok {
				t.Fatalf("decoded to %T", decoded)
			}
			if av.Filter == nil {
				t.Fatal("filter lost in round trip")
			}
			if av.Filter.Describe() != pred.Describe() {
				t.Errorf("filter changed: %q -> %q", pred.Describe(), av.Filter.Describe())
			}
		})
	}
}

// TestUnmarshalStepStrictness rejects unknown ops, unknown fields and missing
// required fields.
func TestUnmarshalStepStrictness(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string // substring of the error
	}{
		{"empty object", `{}`, "missing an op"},
		{"unknown op", `{"op": "drop_table"}`, "unknown step"},
		{"unknown field", `{"op": "star", "hypothesis": 1, "bogus": true}`, "bogus"},
		{"not json", `{`, "parsing step"},
		{"viz without target", `{"op": "add_visualization"}`, "requires a target"},
		{"bad predicate", `{"op": "add_visualization", "target": "g", "predicate": {"type": "nope"}}`, "unknown predicate type"},
		{"compare without ids", `{"op": "compare_visualizations"}`, "requires visualization ids"},
		{"means without attribute", `{"op": "compare_means", "a": 1, "b": 2}`, "requires an attribute"},
		{"means without ids", `{"op": "compare_means", "attribute": "age"}`, "requires visualization ids"},
		{"distributions without attribute", `{"op": "compare_distributions", "a": 1, "b": 2}`, "requires an attribute"},
		{"expectation without viz", `{"op": "test_against_expectation"}`, "requires a visualization"},
		{"descriptive without viz", `{"op": "declare_descriptive"}`, "requires a visualization"},
		{"star without hypothesis", `{"op": "star", "starred": true}`, "requires a hypothesis"},
		{"trailing garbage", `{"op": "star", "hypothesis": 1, "starred": true} trailing garbage`, "data after"},
		{"two steps", `{"op": "star", "hypothesis": 1, "starred": true}{"op": "star", "hypothesis": 2}`, "data after"},
		{"two steps on two lines", "{\"op\": \"star\", \"hypothesis\": 1}\n{\"op\": \"star\", \"hypothesis\": 2}\n", "data after"},
		{"trailing bracket", `{"op": "star", "hypothesis": 1}]`, "data after"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := UnmarshalStep([]byte(tc.in))
			if err == nil {
				t.Fatalf("UnmarshalStep(%s) succeeded, want error containing %q", tc.in, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
	// Whitespace after the step is no second value.
	for _, in := range []string{"{\"op\": \"star\", \"hypothesis\": 1}\n", " {\"op\": \"star\", \"hypothesis\": 1} \r\n\t"} {
		if step, err := UnmarshalStep([]byte(in)); err != nil || step != (Star{Hypothesis: 1, Starred: true}) {
			t.Errorf("UnmarshalStep(%q) = %#v, %v; want the star", in, step, err)
		}
	}
	// Unknown ops specifically surface ErrUnknownStep so servers can 400 them
	// with a typed check.
	if _, err := UnmarshalStep([]byte(`{"op": "drop_table"}`)); !errors.Is(err, ErrUnknownStep) {
		t.Errorf("unknown op error = %v, want ErrUnknownStep", err)
	}
	// Encoding the open set is equally guarded.
	if _, err := MarshalStep(nil); !errors.Is(err, ErrUnknownStep) {
		t.Errorf("MarshalStep(nil) = %v, want ErrUnknownStep", err)
	}
}

// TestAppliedStepJSONRoundTrip serializes a journal entry and back.
func TestAppliedStepJSONRoundTrip(t *testing.T) {
	entry := AppliedStep{
		Seq:             3,
		Step:            CompareMeans{Attribute: "age", A: 1, B: 2},
		HypothesisID:    7,
		VisualizationID: 0,
	}
	data, err := entry.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back AppliedStep
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if back.Seq != entry.Seq || back.HypothesisID != entry.HypothesisID || back.VisualizationID != entry.VisualizationID {
		t.Errorf("metadata changed: %+v -> %+v", entry, back)
	}
	if back.Step.(CompareMeans) != entry.Step.(CompareMeans) {
		t.Errorf("step changed: %#v -> %#v", entry.Step, back.Step)
	}
}

// FuzzDecodeStep holds the codec to a round trip: any document UnmarshalStep
// accepts re-marshals through MarshalStep into a document that decodes to the
// same step and marshals to the same bytes.
func FuzzDecodeStep(f *testing.F) {
	for _, doc := range []string{
		`{"op": "add_visualization", "target": "gender"}`,
		`{"op": "add_visualization", "target": "gender", "predicate": {"type": "and", "terms": [{"type": "equals", "column": "salary", "value": ">50k"}, {"type": "range", "column": "age", "low": 30, "high": 40}]}}`,
		`{"op": "compare_means", "attribute": "age", "a": 1, "b": 2}`,
		`{"op": "test_against_expectation", "visualization": 1, "expected": {"Male": 3, "Female": 1}}`,
		`{"op": "test_against_expectation", "visualization": 1, "expected": {}}`,
		`{"op": "star", "hypothesis": 4, "starred": false}` + "\n",
		`{"op": "star", "hypothesis": 4} {"op": "star", "hypothesis": 5}`,
		`{"op": "derive_column", "name": "band", "expression": {"expr": "bucket", "arg": {"expr": "col", "column": "age"}, "width": 10}}`,
		`{"op": "join_dataset", "dataset": "dim", "left_key": "occupation", "right_key": "occupation", "prefix": "dim_"}`,
		`{"op": "group_by", "row": "gender", "col": "education"}`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		step, err := UnmarshalStep(doc)
		if err != nil {
			return
		}
		wire, err := MarshalStep(step)
		if err != nil {
			t.Fatalf("MarshalStep(%#v) of the accepted %q: %v", step, doc, err)
		}
		again, err := UnmarshalStep(wire)
		if err != nil {
			t.Fatalf("UnmarshalStep(%s), the re-marshaled %q: %v", wire, doc, err)
		}
		if !reflect.DeepEqual(again, step) {
			t.Fatalf("%q decodes to %#v, its re-marshaled %s to %#v", doc, step, wire, again)
		}
		if rewire, err := MarshalStep(again); err != nil || string(rewire) != string(wire) {
			t.Fatalf("%s re-marshals to %s (%v)", wire, rewire, err)
		}
	})
}
