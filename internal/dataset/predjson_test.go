package dataset

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestPredicateJSONRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		pred Predicate
	}{
		{"equals", Equals{Column: "gender", Value: "Female"}},
		{"equals empty value", Equals{Column: "note", Value: ""}},
		{"in", NewIn("education", "Master", "PhD")},
		{"in single", NewIn("education", "HS")},
		{"range", Range{Column: "age", Low: 30, High: 40}},
		{"range open low", Range{Column: "age", Low: math.Inf(-1), High: 65}},
		{"range open high", Range{Column: "age", Low: 18, High: math.Inf(1)}},
		{"range negative bounds", Range{Column: "delta", Low: -2.5, High: -0.25}},
		{"range zero low", Range{Column: "age", Low: 0, High: 10}},
		{"gt", GreaterThan{Column: "hours_per_week", Threshold: 45}},
		{"gt zero", GreaterThan{Column: "hours_per_week", Threshold: 0}},
		{"not", Not{Inner: Equals{Column: "gender", Value: "Male"}}},
		{"not nested", Not{Inner: Not{Inner: GreaterThan{Column: "age", Threshold: 30}}}},
		{"and empty", And{}},
		{"and", And{Terms: []Predicate{
			Equals{Column: "gender", Value: "Female"},
			Range{Column: "age", Low: 30, High: 40},
		}}},
		{"or empty", Or{}},
		{"or", Or{Terms: []Predicate{
			Equals{Column: "education", Value: "PhD"},
			GreaterThan{Column: "hours_per_week", Threshold: 50},
		}}},
		{"deeply nested", And{Terms: []Predicate{
			Or{Terms: []Predicate{
				Equals{Column: "occupation", Value: "Sales"},
				NewIn("occupation", "Admin", "Craft"),
			}},
			Not{Inner: Range{Column: "age", Low: math.Inf(-1), High: 25}},
			Equals{Column: "salary_over_50k", Value: "true"},
		}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, err := MarshalPredicate(tc.pred)
			if err != nil {
				t.Fatalf("MarshalPredicate: %v", err)
			}
			got, err := UnmarshalPredicate(data)
			if err != nil {
				t.Fatalf("UnmarshalPredicate(%s): %v", data, err)
			}
			if !reflect.DeepEqual(got, tc.pred) {
				t.Errorf("round trip mismatch:\n  sent %#v\n  got  %#v\n  wire %s", tc.pred, got, data)
			}
			// The human-readable rendering must survive too — it is what the
			// server embeds in hypothesis descriptions.
			if got.Describe() != tc.pred.Describe() {
				t.Errorf("Describe mismatch: sent %q, got %q", tc.pred.Describe(), got.Describe())
			}
		})
	}
}

func TestPredicateJSONWireShape(t *testing.T) {
	data, err := MarshalPredicate(Range{Column: "age", Low: math.Inf(-1), High: 65})
	if err != nil {
		t.Fatalf("MarshalPredicate: %v", err)
	}
	if !strings.Contains(string(data), `"low":"-inf"`) {
		t.Errorf("open low bound should encode as the string \"-inf\", got %s", data)
	}
	data, err = MarshalPredicate(Range{Column: "age", Low: 18, High: math.Inf(1)})
	if err != nil {
		t.Fatalf("MarshalPredicate: %v", err)
	}
	if !strings.Contains(string(data), `"high":"+inf"`) {
		t.Errorf("open high bound should encode as the string \"+inf\", got %s", data)
	}
	// In values encode in sorted order regardless of how the predicate was
	// written, so semantically equal predicates serialize (and cache) equal.
	data, err = MarshalPredicate(In{Column: "education", Values: []string{"PhD", "Bachelor", "Master"}})
	if err != nil {
		t.Fatalf("MarshalPredicate: %v", err)
	}
	if !strings.Contains(string(data), `"values":["Bachelor","Master","PhD"]`) {
		t.Errorf("in values should encode sorted, got %s", data)
	}
	sortedData, err := MarshalPredicate(NewIn("education", "Master", "PhD", "Bachelor"))
	if err != nil {
		t.Fatalf("MarshalPredicate: %v", err)
	}
	if string(sortedData) != string(data) {
		t.Errorf("semantically equal In predicates encode differently:\n  %s\n  %s", data, sortedData)
	}
	// Leaf predicates must not carry a spurious "terms" field.
	data, err = MarshalPredicate(Equals{Column: "gender", Value: "Female"})
	if err != nil {
		t.Fatalf("MarshalPredicate: %v", err)
	}
	if strings.Contains(string(data), "terms") {
		t.Errorf("equals should not encode a terms field, got %s", data)
	}
}

func TestUnmarshalPredicateErrors(t *testing.T) {
	cases := []struct {
		name string
		json string
	}{
		{"unknown type", `{"type": "xor", "terms": []}`},
		{"missing type", `{"column": "age"}`},
		{"equals without column", `{"type": "equals", "value": "x"}`},
		{"gt without threshold", `{"type": "gt", "column": "age"}`},
		{"not without term", `{"type": "not"}`},
		{"bad bound", `{"type": "gt", "column": "age", "threshold": "wide"}`},
		{"bad nested term", `{"type": "and", "terms": [{"type": "mystery"}]}`},
		{"not json", `{{`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := UnmarshalPredicate([]byte(tc.json)); err == nil {
				t.Errorf("UnmarshalPredicate(%s) succeeded, want error", tc.json)
			}
		})
	}
}

func TestMarshalPredicateErrors(t *testing.T) {
	cases := []struct {
		name string
		pred Predicate
	}{
		{"nil predicate", nil},
		{"not with nil inner", Not{}},
		{"NaN threshold", GreaterThan{Column: "age", Threshold: math.NaN()}},
		{"nested nil term", And{Terms: []Predicate{nil}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := MarshalPredicate(tc.pred); err == nil {
				t.Errorf("MarshalPredicate(%#v) succeeded, want error", tc.pred)
			}
		})
	}
}

// TestPredicateJSONMatches checks that a decoded predicate filters identically
// to the original on a real table.
func TestPredicateJSONMatches(t *testing.T) {
	table, err := NewTable(
		NewCategoricalColumn("color", []string{"red", "green", "blue", "red", "green"}),
		NewFloatColumn("size", []float64{1, 2, 3, 4, 5}),
	)
	if err != nil {
		t.Fatal(err)
	}
	orig := And{Terms: []Predicate{
		Or{Terms: []Predicate{
			Equals{Column: "color", Value: "red"},
			Equals{Column: "color", Value: "green"},
		}},
		Not{Inner: GreaterThan{Column: "size", Threshold: 4}},
	}}
	data, err := MarshalPredicate(orig)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := UnmarshalPredicate(data)
	if err != nil {
		t.Fatal(err)
	}
	wantSel, err := table.Where(orig)
	if err != nil {
		t.Fatal(err)
	}
	gotSel, err := table.Where(decoded)
	if err != nil {
		t.Fatal(err)
	}
	wantCount, gotCount := wantSel.Count(), gotSel.Count()
	if wantCount != gotCount {
		t.Errorf("decoded predicate matches %d rows, original %d", gotCount, wantCount)
	}
	if wantCount != 3 {
		t.Errorf("original predicate matches %d rows, want 3", wantCount)
	}
}
