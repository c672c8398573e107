package main

import (
	"fmt"
	"runtime"
	"time"

	"aware/internal/census"
	"aware/internal/dataset"
	"aware/internal/investing"
	"aware/internal/plan"
	"aware/internal/stats"
)

// The kernel depth of the ladder performs a step's constituent work with the
// layers' public functions only — the filter through the SelectionCache, the
// View aggregations, plan.Optimize / plan.Run, the statistical test and the
// α-investing bid — in the order Session.Apply performs it, timing each call.
// It keeps just enough session state (charts, table, cache, investor) to do
// so, and its p-values and wealth must equal Session.Apply's bit for bit,
// which is what makes its timings a fair "what the step costs below core".

// part is one constituent call of an op at the kernel depth. direct parts are
// the dataset calls underneath a relational step, repeated next to it by the
// direct-mode twin; they are not part of any step's span.
type part struct {
	name       string
	start, end time.Time
	direct     bool
}

type kernelBackend struct {
	lib   *libBackend // table, cache policy and catalog of the twin
	parts []part
	// direct makes relational steps also time the dataset call underneath
	// (HashJoin, Derive, CrossCounts) and account what plan.Run allocated and
	// materialized. The ladder's kernel twin runs without it.
	direct             bool
	planRuns, planRows int
	planAllocKB        float64
}

func (b *kernelBackend) lastParts() []part { return b.parts }

func (b *kernelBackend) newSession() sessionRunner { return &kernelSession{b: b} }

type kernelChart struct {
	target string
	filter dataset.Predicate
}

type kernelSession struct {
	b      *kernelBackend
	table  *dataset.Table
	cache  *dataset.SelectionCache
	inv    *investing.Investor
	charts []kernelChart
	hyps   int
}

// numericBins is the bin count core uses for numeric targets and group-by axes.
const numericBins = plan.DefaultBins

// timed runs fn as one named part.
func (s *kernelSession) timed(name string, direct bool, fn func() error) error {
	p := part{name: name, start: time.Now(), direct: direct}
	err := fn()
	p.end = time.Now()
	s.b.parts = append(s.b.parts, p)
	return err
}

// view resolves a filter through the session's cache ("dataset.where").
func (s *kernelSession) view(filter dataset.Predicate) (v dataset.View, err error) {
	err = s.timed("dataset.where", false, func() error {
		v, err = s.cache.View(filter)
		return err
	})
	return v, err
}

// counts is core's reference distribution of a target over a view: category
// counts for categorical and boolean targets, equal-width bins for numeric.
func (s *kernelSession) counts(v dataset.View, target string) (out []int, err error) {
	err = s.timed("dataset.agg", false, func() error {
		col, err := v.Table().Column(target)
		if err != nil {
			return err
		}
		if col.Type == dataset.Categorical || col.Type == dataset.Bool {
			cats, err := v.Table().Categories(target)
			if err != nil {
				return err
			}
			out, err = v.CountsFor(target, cats)
			return err
		}
		out, err = v.BinCounts(target, numericBins)
		return err
	})
	return out, err
}

// bid routes a finished test through the α-investing procedure.
func (s *kernelSession) bid(test stats.TestResult, support int) (opResult, error) {
	var d investing.Decision
	err := s.timed("investing.bid", false, func() (err error) {
		d, err = s.inv.Test(test.PValue, investing.TestContext{SupportSize: support, PopulationSize: s.table.NumRows()})
		return err
	})
	if err != nil {
		return opResult{}, err
	}
	s.hyps++
	return opResult{hasHyp: true, hypID: s.hyps, pValue: test.PValue, alpha: d.Alpha, rejected: d.Rejected, wealth: s.inv.Wealth()}, nil
}

func (s *kernelSession) test(fn func() (stats.TestResult, error)) (t stats.TestResult, err error) {
	err = s.timed("stats.test", false, func() error {
		t, err = fn()
		return err
	})
	return t, err
}

// do runs one op. The returned duration covers the non-diagnostic parts and
// the glue between them; ops that do no work below core (reads, star, the
// session lifecycle) cost nothing at this depth.
func (s *kernelSession) do(o *op) (opResult, time.Duration, error) {
	s.b.parts = s.b.parts[:0]
	start := time.Now()
	res, diag, err := s.run(o)
	d := time.Since(start)
	if o.kind.class() != classStep {
		d = 0
	}
	if diag != nil && err == nil && s.b.direct {
		err = diag()
	}
	return res, d, err
}

// run returns the op's result and, for relational steps, the diagnostic
// direct dataset call to make after the step's span has ended.
func (s *kernelSession) run(o *op) (opResult, func() error, error) {
	switch o.kind {
	case opCreate:
		lb := s.b.lib
		s.table, s.cache = lb.table, lb.shared
		if s.cache == nil {
			s.cache = dataset.NewSelectionCacheCap(lb.table, lb.privateCap)
		}
		cfg, err := investing.NewConfig(investing.DefaultAlpha)
		if err != nil {
			return opResult{}, nil, err
		}
		// core.NewSession's default policy: ε-hybrid(0.5, γ=δ=10).
		policy, err := investing.NewHybrid(0.5, 10, 10, cfg.Alpha, cfg.InitialWealth(), 0)
		if err != nil {
			return opResult{}, nil, err
		}
		s.inv, err = investing.NewInvestor(cfg, policy)
		return opResult{}, nil, err
	case opViz, opStepViz:
		sub, err := s.view(o.pred.pred)
		if err != nil {
			return opResult{}, nil, err
		}
		observed, err := s.counts(sub, o.target)
		if err != nil {
			return opResult{}, nil, err
		}
		pop, err := s.view(nil)
		if err != nil {
			return opResult{}, nil, err
		}
		popCounts, err := s.counts(pop, o.target)
		if err != nil {
			return opResult{}, nil, err
		}
		expected := make([]float64, len(popCounts))
		for i, c := range popCounts {
			expected[i] = float64(c)
		}
		test, err := s.test(func() (stats.TestResult, error) { return stats.ChiSquaredGoodnessOfFit(observed, expected) })
		if err != nil {
			return opResult{}, nil, err
		}
		s.charts = append(s.charts, kernelChart{o.target, o.pred.pred})
		res, err := s.bid(test, sub.NumRows())
		return res, nil, err
	case opCompare, opStepMeans:
		a, b := s.charts[o.a-1], s.charts[o.b-1]
		subA, err := s.view(a.filter)
		if err != nil {
			return opResult{}, nil, err
		}
		subB, err := s.view(b.filter)
		if err != nil {
			return opResult{}, nil, err
		}
		if o.kind == opCompare {
			countsA, err := s.counts(subA, a.target)
			if err != nil {
				return opResult{}, nil, err
			}
			countsB, err := s.counts(subB, a.target)
			if err != nil {
				return opResult{}, nil, err
			}
			test, err := s.test(func() (stats.TestResult, error) { return stats.ChiSquaredIndependence([][]int{countsA, countsB}) })
			if err != nil {
				return opResult{}, nil, err
			}
			res, err := s.bid(test, subA.NumRows()+subB.NumRows())
			return res, nil, err
		}
		var xs, ys []float64
		err = s.timed("dataset.agg", false, func() (err error) {
			if xs, err = subA.Floats(o.attr); err == nil {
				ys, err = subB.Floats(o.attr)
			}
			return err
		})
		if err != nil {
			return opResult{}, nil, err
		}
		test, err := s.test(func() (stats.TestResult, error) { return stats.WelchTTest(xs, ys, stats.TwoSided) })
		if err != nil {
			return opResult{}, nil, err
		}
		res, err := s.bid(test, len(xs)+len(ys))
		return res, nil, err
	case opDerive:
		before := s.table
		node := plan.Derive{Input: s.scan(), Name: o.name, Expr: o.expr}
		if _, err := s.planRun(node, true); err != nil {
			return opResult{}, nil, err
		}
		return opResult{wealth: s.inv.Wealth()}, func() error {
			return s.timed("dataset.derive", true, func() error { _, err := before.Derive(o.name, o.expr); return err })
		}, nil
	case opJoin:
		cache := s.cache
		node := plan.Join{Left: s.scan(), Right: plan.Scan{Dataset: dimDataset},
			LeftKey: census.ColOccupation, RightKey: "occupation", RightPrefix: "dim_"}
		if _, err := s.planRun(node, true); err != nil {
			return opResult{}, nil, err
		}
		return opResult{wealth: s.inv.Wealth()}, func() error {
			lv, err := cache.View(nil)
			if err != nil {
				return err
			}
			_, rc, err := s.b.lib.catalog.Dataset(dimDataset)
			if err != nil {
				return err
			}
			rv, err := rc.View(nil)
			if err != nil {
				return err
			}
			return s.timed("dataset.join", true, func() error {
				_, err := dataset.HashJoin(lv, rv, census.ColOccupation, "occupation", "dim_")
				return err
			})
		}, nil
	case opGroupBy:
		node := plan.GroupBy{Input: plan.Filter{Input: s.scan(), Pred: o.pred.pred}, RowAttr: o.row, ColAttr: o.col, Bins: numericBins}
		out, err := s.planRun(node, false)
		if err != nil {
			return opResult{}, nil, err
		}
		test, err := s.test(func() (stats.TestResult, error) { return stats.ChiSquaredIndependence(out.Cross.Counts) })
		if err != nil {
			return opResult{}, nil, err
		}
		support := 0
		for _, row := range out.Cross.Counts {
			for _, c := range row {
				support += c
			}
		}
		res, err := s.bid(test, support)
		cache := s.cache
		return res, func() error {
			v, err := cache.View(o.pred.pred) // a hit: plan.Run compiled it
			if err != nil {
				return err
			}
			return s.timed("dataset.groupby", true, func() error {
				_, err := v.CrossCounts(o.row, o.col, numericBins)
				return err
			})
		}, err
	case opDelete:
		s.charts = nil
		return opResult{}, nil, nil
	case opStepStar, opGauge, opLog, opReport, opHoldoutValidate, opHoldoutReplay:
		return opResult{}, nil, nil
	}
	return opResult{}, nil, fmt.Errorf("kernel: unknown op kind %d", o.kind)
}

func (s *kernelSession) scan() plan.Node { return plan.TableScan{Table: s.table, Cache: s.cache} }

// planRun times plan.Optimize on its own, then plan.Run (which optimizes
// again internally: plan.run_us includes that), and with adopt continues the
// session over the produced table, as core's derive and join steps do.
func (s *kernelSession) planRun(node plan.Node, adopt bool) (plan.Result, error) {
	cat := s.b.lib.catalog
	if err := s.timed("plan.optimize", false, func() error { _, err := plan.Optimize(node, cat); return err }); err != nil {
		return plan.Result{}, err
	}
	var m0, m1 runtime.MemStats
	if s.b.direct {
		runtime.ReadMemStats(&m0)
	}
	var out plan.Result
	err := s.timed("plan.run", false, func() (err error) {
		out, err = plan.Run(node, cat)
		return err
	})
	if err != nil {
		return plan.Result{}, err
	}
	if s.b.direct {
		runtime.ReadMemStats(&m1)
		s.b.planRuns++
		s.b.planAllocKB += float64(m1.TotalAlloc-m0.TotalAlloc) / 1024
	}
	if adopt {
		s.table = out.View.Table()
		s.cache = dataset.NewSelectionCache(s.table)
		s.b.planRows += s.table.NumRows()
	}
	return out, nil
}
