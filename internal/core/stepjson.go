package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"aware/internal/dataset"
)

// Step JSON wire format. Every step kind maps to a tagged object so that
// remote clients (cmd/awared's POST /sessions/{id}/steps endpoint), journal
// files and recorded exploration logs share one lossless representation:
//
//	{"op": "add_visualization", "target": "gender", "predicate": {...}}
//	{"op": "compare_visualizations", "a": 1, "b": 2}
//	{"op": "compare_means", "attribute": "age", "a": 1, "b": 2}
//	{"op": "compare_distributions", "attribute": "age", "a": 1, "b": 2}
//	{"op": "test_against_expectation", "visualization": 1, "expected": {"Male": 3, "Female": 1}}
//	{"op": "declare_descriptive", "visualization": 2}
//	{"op": "star", "hypothesis": 3, "starred": true}
//	{"op": "derive_column", "name": "wage_decade", "expression": {...}}
//	{"op": "join_dataset", "dataset": "regions", "left_key": "region", "right_key": "name", "prefix": "region_"}
//	{"op": "group_by", "row": "education", "col": "gender", "predicate": {...}}
//
// Predicates reuse the dataset package's predicate wire format and derive
// expressions its expression wire format. Decoding is strict: unknown fields,
// missing ops and missing required fields are errors, and every step
// round-trips losslessly (MarshalStep ∘ UnmarshalStep is the identity on the
// closed step set).

// stepJSON is the tagged union each step encodes to. Exactly the fields
// relevant to Op are populated.
type stepJSON struct {
	Op            string             `json:"op"`
	Target        string             `json:"target,omitempty"`
	Predicate     json.RawMessage    `json:"predicate,omitempty"`
	Attribute     string             `json:"attribute,omitempty"`
	A             int                `json:"a,omitempty"`
	B             int                `json:"b,omitempty"`
	Visualization int                `json:"visualization,omitempty"`
	Expected      map[string]float64 `json:"expected,omitempty"`
	Hypothesis    int                `json:"hypothesis,omitempty"`
	Starred       *bool              `json:"starred,omitempty"`
	Name          string             `json:"name,omitempty"`
	Expression    json.RawMessage    `json:"expression,omitempty"`
	Dataset       string             `json:"dataset,omitempty"`
	LeftKey       string             `json:"left_key,omitempty"`
	RightKey      string             `json:"right_key,omitempty"`
	Prefix        string             `json:"prefix,omitempty"`
	Row           string             `json:"row,omitempty"`
	Col           string             `json:"col,omitempty"`
}

// encodeStep converts a step into its wire representation.
func encodeStep(s Step) (*stepJSON, error) {
	switch st := s.(type) {
	case AddVisualization:
		out := &stepJSON{Op: st.Kind(), Target: st.Target}
		if st.Filter != nil {
			pred, err := dataset.MarshalPredicate(st.Filter)
			if err != nil {
				return nil, fmt.Errorf("core: encoding %s filter: %w", st.Kind(), err)
			}
			out.Predicate = pred
		}
		return out, nil
	case CompareVisualizations:
		return &stepJSON{Op: st.Kind(), A: st.A, B: st.B}, nil
	case CompareMeans:
		return &stepJSON{Op: st.Kind(), Attribute: st.Attribute, A: st.A, B: st.B}, nil
	case CompareDistributions:
		return &stepJSON{Op: st.Kind(), Attribute: st.Attribute, A: st.A, B: st.B}, nil
	case TestAgainstExpectation:
		return &stepJSON{Op: st.Kind(), Visualization: st.Visualization, Expected: st.Expected}, nil
	case DeclareDescriptive:
		return &stepJSON{Op: st.Kind(), Visualization: st.Visualization}, nil
	case Star:
		starred := st.Starred
		return &stepJSON{Op: st.Kind(), Hypothesis: st.Hypothesis, Starred: &starred}, nil
	case DeriveColumn:
		expr, err := dataset.MarshalExpr(st.Expr)
		if err != nil {
			return nil, fmt.Errorf("core: encoding %s expression: %w", st.Kind(), err)
		}
		return &stepJSON{Op: st.Kind(), Name: st.Name, Expression: expr}, nil
	case JoinDataset:
		return &stepJSON{Op: st.Kind(), Dataset: st.Dataset, LeftKey: st.LeftKey, RightKey: st.RightKey, Prefix: st.Prefix}, nil
	case GroupByHypothesis:
		out := &stepJSON{Op: st.Kind(), Row: st.RowAttr, Col: st.ColAttr}
		if st.Filter != nil {
			pred, err := dataset.MarshalPredicate(st.Filter)
			if err != nil {
				return nil, fmt.Errorf("core: encoding %s filter: %w", st.Kind(), err)
			}
			out.Predicate = pred
		}
		return out, nil
	case nil:
		return nil, fmt.Errorf("%w: cannot encode nil step", ErrUnknownStep)
	default:
		return nil, fmt.Errorf("%w: cannot encode step type %T", ErrUnknownStep, s)
	}
}

// decodeStep converts a wire representation back into a step.
func decodeStep(sj *stepJSON) (Step, error) {
	if sj == nil {
		return nil, fmt.Errorf("core: missing step object")
	}
	switch sj.Op {
	case "add_visualization":
		if sj.Target == "" {
			return nil, fmt.Errorf("core: add_visualization step requires a target")
		}
		st := AddVisualization{Target: sj.Target}
		if len(sj.Predicate) > 0 && !bytes.Equal(sj.Predicate, []byte("null")) {
			filter, err := dataset.UnmarshalPredicate(sj.Predicate)
			if err != nil {
				return nil, fmt.Errorf("core: add_visualization predicate: %w", err)
			}
			st.Filter = filter
		}
		return st, nil
	case "compare_visualizations":
		if sj.A == 0 || sj.B == 0 {
			return nil, fmt.Errorf("core: compare_visualizations step requires visualization ids a and b")
		}
		return CompareVisualizations{A: sj.A, B: sj.B}, nil
	case "compare_means":
		if sj.Attribute == "" {
			return nil, fmt.Errorf("core: compare_means step requires an attribute")
		}
		if sj.A == 0 || sj.B == 0 {
			return nil, fmt.Errorf("core: compare_means step requires visualization ids a and b")
		}
		return CompareMeans{Attribute: sj.Attribute, A: sj.A, B: sj.B}, nil
	case "compare_distributions":
		if sj.Attribute == "" {
			return nil, fmt.Errorf("core: compare_distributions step requires an attribute")
		}
		if sj.A == 0 || sj.B == 0 {
			return nil, fmt.Errorf("core: compare_distributions step requires visualization ids a and b")
		}
		return CompareDistributions{Attribute: sj.Attribute, A: sj.A, B: sj.B}, nil
	case "test_against_expectation":
		if sj.Visualization == 0 {
			return nil, fmt.Errorf("core: test_against_expectation step requires a visualization id")
		}
		return TestAgainstExpectation{Visualization: sj.Visualization, Expected: sj.Expected}, nil
	case "declare_descriptive":
		if sj.Visualization == 0 {
			return nil, fmt.Errorf("core: declare_descriptive step requires a visualization id")
		}
		return DeclareDescriptive{Visualization: sj.Visualization}, nil
	case "star":
		if sj.Hypothesis == 0 {
			return nil, fmt.Errorf("core: star step requires a hypothesis id")
		}
		starred := true
		if sj.Starred != nil {
			starred = *sj.Starred
		}
		return Star{Hypothesis: sj.Hypothesis, Starred: starred}, nil
	case "derive_column":
		if sj.Name == "" {
			return nil, fmt.Errorf("core: derive_column step requires a name")
		}
		if len(sj.Expression) == 0 || bytes.Equal(sj.Expression, []byte("null")) {
			return nil, fmt.Errorf("core: derive_column step requires an expression")
		}
		expr, err := dataset.UnmarshalExpr(sj.Expression)
		if err != nil {
			return nil, fmt.Errorf("core: derive_column expression: %w", err)
		}
		return DeriveColumn{Name: sj.Name, Expr: expr}, nil
	case "join_dataset":
		if sj.Dataset == "" {
			return nil, fmt.Errorf("core: join_dataset step requires a dataset")
		}
		if sj.LeftKey == "" || sj.RightKey == "" {
			return nil, fmt.Errorf("core: join_dataset step requires left_key and right_key")
		}
		return JoinDataset{Dataset: sj.Dataset, LeftKey: sj.LeftKey, RightKey: sj.RightKey, Prefix: sj.Prefix}, nil
	case "group_by":
		if sj.Row == "" || sj.Col == "" {
			return nil, fmt.Errorf("core: group_by step requires row and col attributes")
		}
		st := GroupByHypothesis{RowAttr: sj.Row, ColAttr: sj.Col}
		if len(sj.Predicate) > 0 && !bytes.Equal(sj.Predicate, []byte("null")) {
			filter, err := dataset.UnmarshalPredicate(sj.Predicate)
			if err != nil {
				return nil, fmt.Errorf("core: group_by predicate: %w", err)
			}
			st.Filter = filter
		}
		return st, nil
	case "":
		return nil, fmt.Errorf("core: step object is missing an op")
	default:
		return nil, fmt.Errorf("%w: op %q", ErrUnknownStep, sj.Op)
	}
}

// MarshalStep serializes a step to its JSON wire format.
func MarshalStep(s Step) ([]byte, error) {
	enc, err := encodeStep(s)
	if err != nil {
		return nil, err
	}
	return json.Marshal(enc)
}

// UnmarshalStep parses the JSON wire format into a step. Unknown fields are
// rejected.
func UnmarshalStep(data []byte) (Step, error) { return DecodeStep(bytes.NewReader(data)) }

// DecodeStep reads one step in the JSON wire format from r, as strictly as
// UnmarshalStep, without first buffering the whole document.
func DecodeStep(r io.Reader) (Step, error) {
	var sj stepJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sj); err != nil {
		return nil, fmt.Errorf("core: parsing step JSON: %w", err)
	}
	return decodeStep(&sj)
}

// appliedStepJSON is the wire form of a journal entry.
type appliedStepJSON struct {
	Seq             int             `json:"seq"`
	Step            json.RawMessage `json:"step"`
	VisualizationID int             `json:"visualization_id,omitempty"`
	HypothesisID    int             `json:"hypothesis_id,omitempty"`
}

// MarshalJSON implements json.Marshaler, so a journal serializes directly with
// encoding/json.
func (a AppliedStep) MarshalJSON() ([]byte, error) {
	step, err := MarshalStep(a.Step)
	if err != nil {
		return nil, err
	}
	return json.Marshal(appliedStepJSON{
		Seq:             a.Seq,
		Step:            step,
		VisualizationID: a.VisualizationID,
		HypothesisID:    a.HypothesisID,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (a *AppliedStep) UnmarshalJSON(data []byte) error {
	var aj appliedStepJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&aj); err != nil {
		return fmt.Errorf("core: parsing applied step JSON: %w", err)
	}
	step, err := UnmarshalStep(aj.Step)
	if err != nil {
		return err
	}
	*a = AppliedStep{
		Seq:             aj.Seq,
		Step:            step,
		VisualizationID: aj.VisualizationID,
		HypothesisID:    aj.HypothesisID,
	}
	return nil
}
