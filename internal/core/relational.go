package core

import (
	"fmt"

	"aware/internal/dataset"
	"aware/internal/plan"
	"aware/internal/stats"
)

// This file implements the relational steps: deriving computed columns,
// joining a second registered dataset into the session, and group-by
// hypotheses over arbitrary attribute pairs. All three compile into a logical
// plan (internal/plan), so their filters resolve through the cached, tuned
// Where kernels; like every other step they do all fallible work before
// mutating session state.

// scanNode is the plan leaf every relational step builds on: the session's
// current table read through its filter-bitmap cache, so a scan-level filter
// seen before is a cache hit.
func (s *Session) scanNode() plan.Node {
	return plan.TableScan{Table: s.data, Cache: s.sel}
}

// adoptTable moves the session onto a new table (a join or derive result)
// with a fresh private filter-bitmap cache bound to it. Only called after
// every fallible part of the step succeeded.
func (s *Session) adoptTable(t *dataset.Table) {
	s.data = t
	s.sel = dataset.NewSelectionCache(t)
}

func (s *Session) deriveColumn(st DeriveColumn) (StepResult, error) {
	if st.Name == "" {
		return StepResult{}, fmt.Errorf("core: derive step requires a column name")
	}
	if st.Expr == nil {
		return StepResult{}, fmt.Errorf("core: derive step requires an expression")
	}
	res, err := plan.Run(plan.Derive{Input: s.scanNode(), Name: st.Name, Expr: st.Expr}, s.catalog)
	if err != nil {
		return StepResult{}, fmt.Errorf("core: deriving column %q: %w", st.Name, err)
	}
	s.adoptTable(res.View.Table())
	return StepResult{}, nil
}

func (s *Session) joinDataset(st JoinDataset) (StepResult, error) {
	if st.Dataset == "" || st.LeftKey == "" || st.RightKey == "" {
		return StepResult{}, fmt.Errorf("core: join step requires a dataset and both key columns")
	}
	if s.catalog == nil {
		return StepResult{}, fmt.Errorf("core: join steps require a session catalog (Options.Catalog)")
	}
	res, err := plan.Run(plan.Join{
		Left:        s.scanNode(),
		Right:       plan.Scan{Dataset: st.Dataset},
		LeftKey:     st.LeftKey,
		RightKey:    st.RightKey,
		RightPrefix: st.Prefix,
	}, s.catalog)
	if err != nil {
		return StepResult{}, fmt.Errorf("core: joining with dataset %q: %w", st.Dataset, err)
	}
	s.adoptTable(res.View.Table())
	return StepResult{}, nil
}

func (s *Session) groupByHypothesis(st GroupByHypothesis) (StepResult, error) {
	if st.RowAttr == "" || st.ColAttr == "" {
		return StepResult{}, fmt.Errorf("core: group-by step requires row and column attributes")
	}
	node := plan.GroupBy{
		Input:   plan.Filter{Input: s.scanNode(), Pred: st.Filter},
		RowAttr: st.RowAttr,
		ColAttr: st.ColAttr,
		Bins:    numericBins,
	}
	res, err := plan.Run(node, s.catalog)
	if err != nil {
		return StepResult{}, fmt.Errorf("core: group-by hypothesis %q × %q: %w", st.RowAttr, st.ColAttr, err)
	}
	test, err := stats.ChiSquaredIndependence(res.Cross.Counts)
	if err != nil {
		return StepResult{}, fmt.Errorf("core: group-by hypothesis %q × %q: %w", st.RowAttr, st.ColAttr, err)
	}
	support := 0
	for _, row := range res.Cross.Counts {
		for _, c := range row {
			support += c
		}
	}
	hyp, err := s.record(test, Hypothesis{
		Null:        fmt.Sprintf("%s independent of %s | (%s)", st.RowAttr, st.ColAttr, describeFilter(st.Filter)),
		Alternative: fmt.Sprintf("%s associated with %s | (%s)", st.RowAttr, st.ColAttr, describeFilter(st.Filter)),
		Source:      SourceUser,
		SupportSize: support,
	})
	return StepResult{Hypothesis: hyp}, err
}
