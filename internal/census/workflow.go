package census

import (
	"fmt"
	"math/rand"

	"aware/internal/core"
	"aware/internal/dataset"
)

// HypothesisKind distinguishes the two shapes of hypotheses the user-study
// workflows contain, matching AWARE's heuristic rules 2 and 3.
type HypothesisKind int

const (
	// FilterVsPopulation tests whether the distribution of a target attribute
	// under a filter differs from its distribution over the whole dataset
	// (heuristic rule 2).
	FilterVsPopulation HypothesisKind = iota
	// FilterVsComplement tests whether the distribution of a target attribute
	// differs between a filter and its complement (heuristic rule 3).
	FilterVsComplement
)

// String implements fmt.Stringer.
func (k HypothesisKind) String() string {
	switch k {
	case FilterVsPopulation:
		return "filter-vs-population"
	case FilterVsComplement:
		return "filter-vs-complement"
	default:
		return fmt.Sprintf("HypothesisKind(%d)", int(k))
	}
}

// WorkflowStep is one hypothesis of a user-study workflow: a target attribute
// whose distribution is compared either against the whole population or
// against the complement of the filter.
type WorkflowStep struct {
	// ID is the 1-based position in the workflow.
	ID int
	// Kind selects the comparison shape.
	Kind HypothesisKind
	// Target is the attribute whose distribution is visualized.
	Target string
	// Filter selects the sub-population (never nil).
	Filter dataset.Predicate
	// Description is a human-readable rendering, e.g.
	// "gender | salary_over_50k = true <> gender".
	Description string
}

// Workflow is an ordered stream of hypotheses as produced by one or more
// exploration sessions. Order matters: the α-investing and SeqFDR procedures
// consume it sequentially.
type Workflow struct {
	Steps []WorkflowStep
}

// CoreSteps lowers the workflow onto the closed command algebra of
// internal/core, so that the same user-study exploration can drive a live
// Session (directly, over the HTTP steps endpoint, or through core.Replay)
// instead of only the raw p-value stream of EvaluateWorkflow:
//
//   - FilterVsPopulation becomes one AddVisualization step — heuristic
//     rule 2's default hypothesis is exactly the step's test.
//   - FilterVsComplement becomes two AddVisualization steps (the filter and
//     its complement) followed by a CompareVisualizations step — rule 3's
//     comparison supersedes the two intermediate rule-2 hypotheses, leaving
//     one active hypothesis per workflow step.
//
// Note that a session additionally routes every hypothesis through
// α-investing, so driving CoreSteps spends wealth on the intermediate rule-2
// hypotheses too; the raw-stream evaluation path remains the harness for the
// paper's procedure comparisons.
func (w *Workflow) CoreSteps() []core.Step {
	steps := make([]core.Step, 0, len(w.Steps))
	vizCount := 0
	for _, ws := range w.Steps {
		switch ws.Kind {
		case FilterVsComplement:
			steps = append(steps,
				core.AddVisualization{Target: ws.Target, Filter: ws.Filter},
				core.AddVisualization{Target: ws.Target, Filter: dataset.Not{Inner: ws.Filter}},
				core.CompareVisualizations{A: vizCount + 1, B: vizCount + 2},
			)
			vizCount += 2
		default: // FilterVsPopulation
			steps = append(steps, core.AddVisualization{Target: ws.Target, Filter: ws.Filter})
			vizCount++
		}
	}
	return steps
}

// WorkflowConfig controls GenerateWorkflow.
type WorkflowConfig struct {
	// Hypotheses is the number of steps to generate; the paper's Exp. 2 uses
	// 115.
	Hypotheses int
	// Seed drives the deterministic choice of targets and filters.
	Seed int64
	// MaxChainDepth bounds how many filter conditions are chained together
	// (Figure 1 chains up to three).
	MaxChainDepth int
}

// categoricalAttrs are the attributes whose distributions the generated
// workflows visualize and filter on.
var categoricalAttrs = []string{ColGender, ColEducation, ColMaritalStatus, ColOccupation, ColSalaryOver50K}

// GenerateWorkflow produces a deterministic stream of hypotheses over the
// census schema with the same shape as the user-study workflows: the analyst
// picks a target attribute, builds a chain of up to MaxChainDepth filter
// conditions on other attributes, and either compares the filtered
// distribution against the population or against the complement of the last
// filter condition. Steps frequently share filter prefixes, mimicking how
// real sessions drill down.
func GenerateWorkflow(t *dataset.Table, cfg WorkflowConfig) (*Workflow, error) {
	if cfg.Hypotheses <= 0 {
		return nil, fmt.Errorf("census: workflow needs a positive number of hypotheses, got %d", cfg.Hypotheses)
	}
	if cfg.MaxChainDepth <= 0 {
		cfg.MaxChainDepth = 3
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Pre-compute category values per attribute for filter construction.
	valuesByAttr := make(map[string][]string, len(categoricalAttrs))
	for _, attr := range categoricalAttrs {
		cats, err := t.Categories(attr)
		if err != nil {
			return nil, fmt.Errorf("census: schema is missing attribute %q: %w", attr, err)
		}
		valuesByAttr[attr] = cats
	}

	w := &Workflow{}
	var chain []dataset.Predicate
	var chainAttrs map[string]bool

	resetChain := func() {
		chain = nil
		chainAttrs = make(map[string]bool)
	}
	resetChain()

	for len(w.Steps) < cfg.Hypotheses {
		// Start a new exploration thread occasionally or when the chain is at
		// its maximum depth.
		if len(chain) >= cfg.MaxChainDepth || (len(chain) > 0 && rng.Float64() < 0.3) {
			resetChain()
		}
		// Pick a filter attribute not already in the chain.
		var filterAttr string
		for {
			filterAttr = categoricalAttrs[rng.Intn(len(categoricalAttrs))]
			if !chainAttrs[filterAttr] {
				break
			}
		}
		values := valuesByAttr[filterAttr]
		value := values[rng.Intn(len(values))]
		cond := dataset.Equals{Column: filterAttr, Value: value}
		chain = append(chain, cond)
		chainAttrs[filterAttr] = true

		// Pick a target attribute different from every filter attribute.
		var target string
		for {
			target = categoricalAttrs[rng.Intn(len(categoricalAttrs))]
			if !chainAttrs[target] {
				break
			}
		}

		filter := dataset.And{Terms: append([]dataset.Predicate(nil), chain...)}
		kind := FilterVsPopulation
		if rng.Float64() < 0.4 {
			kind = FilterVsComplement
		}
		var desc string
		if kind == FilterVsComplement {
			desc = fmt.Sprintf("%s | %s <> %s | not(%s)", target, filter.Describe(), target, cond.Describe())
		} else {
			desc = fmt.Sprintf("%s | %s <> %s (population)", target, filter.Describe(), target)
		}
		w.Steps = append(w.Steps, WorkflowStep{
			ID:          len(w.Steps) + 1,
			Kind:        kind,
			Target:      target,
			Filter:      filter,
			Description: desc,
		})
	}
	return w, nil
}
