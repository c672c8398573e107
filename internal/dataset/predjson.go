package dataset

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
)

// Predicate JSON wire format. Every exported predicate type maps to a tagged
// object so that remote clients (cmd/awared's HTTP API) can express arbitrary
// filter chains:
//
//	{"type": "equals", "column": "gender", "value": "Female"}
//	{"type": "in", "column": "education", "values": ["Master", "PhD"]}
//	{"type": "range", "column": "age", "low": 30, "high": 40}
//	{"type": "gt", "column": "hours_per_week", "threshold": 45}
//	{"type": "not", "term": {...}}
//	{"type": "and", "terms": [{...}, {...}]}
//	{"type": "or", "terms": [{...}, {...}]}
//
// Open-ended ranges use the strings "-inf"/"+inf" for Low/High, since JSON
// numbers cannot represent infinities.

// boundFloat is a float64 that encodes ±Inf as the strings "-inf"/"+inf" so
// that open-ended Range bounds survive the trip through JSON.
type boundFloat float64

// MarshalJSON implements json.Marshaler.
func (f boundFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-inf"`), nil
	case math.IsNaN(v):
		return nil, fmt.Errorf("dataset: NaN is not a valid predicate bound")
	default:
		return []byte(strconv.FormatFloat(v, 'g', -1, 64)), nil
	}
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *boundFloat) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case `"+inf"`, `"inf"`, `"Inf"`, `"+Inf"`:
		*f = boundFloat(math.Inf(1))
		return nil
	case `"-inf"`, `"-Inf"`:
		*f = boundFloat(math.Inf(-1))
		return nil
	}
	var v float64
	if err := json.Unmarshal(data, &v); err != nil {
		return fmt.Errorf("dataset: predicate bound %s: %w", data, err)
	}
	*f = boundFloat(v)
	return nil
}

// predicateJSON is the tagged union each predicate encodes to. Exactly the
// fields relevant to Type are populated.
type predicateJSON struct {
	Type      string           `json:"type"`
	Column    string           `json:"column,omitempty"`
	Value     string           `json:"value,omitempty"`
	Values    []string         `json:"values,omitempty"`
	Low       *boundFloat      `json:"low,omitempty"`
	High      *boundFloat      `json:"high,omitempty"`
	Threshold *boundFloat      `json:"threshold,omitempty"`
	Term      *predicateJSON   `json:"term,omitempty"`
	Terms     []*predicateJSON `json:"terms,omitempty"`
}

func bound(v float64) *boundFloat {
	b := boundFloat(v)
	return &b
}

// encodePredicate converts a predicate into its wire representation.
func encodePredicate(p Predicate) (*predicateJSON, error) {
	switch q := p.(type) {
	case Equals:
		return &predicateJSON{Type: "equals", Column: q.Column, Value: q.Value}, nil
	case In:
		// Values encode sorted, so semantically equal In predicates (the same
		// value set in any order) serialize — and therefore cache — equal.
		return &predicateJSON{Type: "in", Column: q.Column, Values: sortedStrings(q.Values)}, nil
	case Range:
		return &predicateJSON{Type: "range", Column: q.Column, Low: bound(q.Low), High: bound(q.High)}, nil
	case GreaterThan:
		return &predicateJSON{Type: "gt", Column: q.Column, Threshold: bound(q.Threshold)}, nil
	case Not:
		if q.Inner == nil {
			return nil, fmt.Errorf("dataset: cannot encode Not with nil inner predicate")
		}
		inner, err := encodePredicate(q.Inner)
		if err != nil {
			return nil, err
		}
		return &predicateJSON{Type: "not", Term: inner}, nil
	case And:
		terms, err := encodeTerms(q.Terms)
		if err != nil {
			return nil, err
		}
		return &predicateJSON{Type: "and", Terms: terms}, nil
	case Or:
		terms, err := encodeTerms(q.Terms)
		if err != nil {
			return nil, err
		}
		return &predicateJSON{Type: "or", Terms: terms}, nil
	case nil:
		return nil, fmt.Errorf("dataset: cannot encode nil predicate")
	default:
		return nil, fmt.Errorf("dataset: cannot encode predicate type %T", p)
	}
}

func encodeTerms(terms []Predicate) ([]*predicateJSON, error) {
	if len(terms) == 0 {
		return nil, nil
	}
	out := make([]*predicateJSON, len(terms))
	for i, t := range terms {
		enc, err := encodePredicate(t)
		if err != nil {
			return nil, err
		}
		out[i] = enc
	}
	return out, nil
}

// decodePredicate converts a wire representation back into a predicate.
func decodePredicate(pj *predicateJSON) (Predicate, error) {
	if pj == nil {
		return nil, fmt.Errorf("dataset: missing predicate object")
	}
	switch pj.Type {
	case "equals":
		if pj.Column == "" {
			return nil, fmt.Errorf("dataset: equals predicate requires a column")
		}
		return Equals{Column: pj.Column, Value: pj.Value}, nil
	case "in":
		if pj.Column == "" {
			return nil, fmt.Errorf("dataset: in predicate requires a column")
		}
		return NewIn(pj.Column, pj.Values...), nil
	case "range":
		if pj.Column == "" {
			return nil, fmt.Errorf("dataset: range predicate requires a column")
		}
		r := Range{Column: pj.Column, Low: math.Inf(-1), High: math.Inf(1)}
		if pj.Low != nil {
			r.Low = float64(*pj.Low)
		}
		if pj.High != nil {
			r.High = float64(*pj.High)
		}
		return r, nil
	case "gt":
		if pj.Column == "" {
			return nil, fmt.Errorf("dataset: gt predicate requires a column")
		}
		if pj.Threshold == nil {
			return nil, fmt.Errorf("dataset: gt predicate requires a threshold")
		}
		return GreaterThan{Column: pj.Column, Threshold: float64(*pj.Threshold)}, nil
	case "not":
		inner, err := decodePredicate(pj.Term)
		if err != nil {
			return nil, fmt.Errorf("dataset: not predicate: %w", err)
		}
		return Not{Inner: inner}, nil
	case "and":
		terms, err := decodeTerms(pj.Terms)
		if err != nil {
			return nil, fmt.Errorf("dataset: and predicate: %w", err)
		}
		return And{Terms: terms}, nil
	case "or":
		terms, err := decodeTerms(pj.Terms)
		if err != nil {
			return nil, fmt.Errorf("dataset: or predicate: %w", err)
		}
		return Or{Terms: terms}, nil
	case "":
		return nil, fmt.Errorf("dataset: predicate object is missing a type")
	default:
		return nil, fmt.Errorf("dataset: unknown predicate type %q", pj.Type)
	}
}

func decodeTerms(terms []*predicateJSON) ([]Predicate, error) {
	if len(terms) == 0 {
		return nil, nil
	}
	out := make([]Predicate, len(terms))
	for i, t := range terms {
		dec, err := decodePredicate(t)
		if err != nil {
			return nil, err
		}
		out[i] = dec
	}
	return out, nil
}

// MarshalPredicate serializes a predicate to its JSON wire format.
func MarshalPredicate(p Predicate) ([]byte, error) {
	enc, err := encodePredicate(p)
	if err != nil {
		return nil, err
	}
	return json.Marshal(enc)
}

// UnmarshalPredicate parses the JSON wire format into a predicate.
func UnmarshalPredicate(data []byte) (Predicate, error) {
	var pj predicateJSON
	if err := json.Unmarshal(data, &pj); err != nil {
		return nil, fmt.Errorf("dataset: parsing predicate JSON: %w", err)
	}
	return decodePredicate(&pj)
}

// CanonicalPredicateKey returns a canonical string key for the predicate: its
// JSON wire form with In values sorted and And/Or terms recursively sorted by
// their own canonical serialization, so spellings that differ only in the
// order of In values or of And/Or terms produce equal keys. It sorts, no
// more: bounds that fall between the same two values of a column, or a
// repeated term, still key apart. SelectionCache keys by it only what it
// cannot key by the codes a filter selects (an Or, a Not, a leaf over a wide
// column). The wire format produced by MarshalPredicate keeps the author's
// term order; only the key sorts.
func CanonicalPredicateKey(p Predicate) (string, error) {
	data, err := canonicalJSON(p)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// canonicalJSON is CanonicalPredicateKey's bytes.
func canonicalJSON(p Predicate) ([]byte, error) {
	enc, err := encodePredicate(p)
	if err != nil {
		return nil, err
	}
	if err := canonicalizeTermOrder(enc); err != nil {
		return nil, err
	}
	return json.Marshal(enc)
}

// canonicalizeTermOrder recursively sorts the Terms of every and/or node by
// the terms' (already canonicalized) serializations, making the key of a
// conjunction independent of the order its terms were written in.
func canonicalizeTermOrder(pj *predicateJSON) error {
	if pj == nil {
		return nil
	}
	if pj.Term != nil {
		if err := canonicalizeTermOrder(pj.Term); err != nil {
			return err
		}
	}
	if len(pj.Terms) == 0 {
		return nil
	}
	keys := make([]string, len(pj.Terms))
	for i, t := range pj.Terms {
		if err := canonicalizeTermOrder(t); err != nil {
			return err
		}
		data, err := json.Marshal(t)
		if err != nil {
			return err
		}
		keys[i] = string(data)
	}
	sort.Sort(&termsByKey{keys: keys, terms: pj.Terms})
	return nil
}

// termsByKey sorts a term slice and its serialization keys in lockstep.
type termsByKey struct {
	keys  []string
	terms []*predicateJSON
}

func (s *termsByKey) Len() int           { return len(s.keys) }
func (s *termsByKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *termsByKey) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.terms[i], s.terms[j] = s.terms[j], s.terms[i]
}
