// Package aware is the public API of the AWARE reproduction: automatic
// control of false discoveries during interactive data exploration
// (Zhao et al., "Controlling False Discoveries During Interactive Data
// Exploration", 2017).
//
// The package is a thin facade over the internal packages:
//
//   - internal/core      — the exploration Session, default-hypothesis
//     heuristics, risk gauge, n_H1 annotation, hold-out validation
//   - internal/investing — the α-investing procedure and the five investing
//     rules (β-farsighted, γ-fixed, δ-hopeful, ε-hybrid, ψ-support)
//   - internal/multcomp  — classic batch procedures (Bonferroni, BH, ...)
//   - internal/dataset   — the columnar data substrate (tables, filters)
//   - internal/colstore  — the storage engine: SoA column store + mmap-able
//     versioned snapshot files (*.aware) with streaming CSV/JSONL ingestion
//   - internal/census    — synthetic census data and user-study workflows
//   - internal/stats     — distributions, tests, effect sizes, power
//   - internal/simulation — the harness that regenerates the paper's figures
//
// A typical interactive session applies serializable Step commands:
//
//	table, _ := aware.GenerateCensus(aware.CensusConfig{Rows: 30000, Seed: 1, SignalStrength: 1})
//	session, _ := aware.NewSession(table, aware.SessionOptions{})
//	res, _ := session.Apply(aware.AddVisualization{Target: "gender",
//	    Filter: aware.Equals{Column: "salary_over_50k", Value: "true"}})
//	fmt.Println(res.Hypothesis.Summary())
//	fmt.Println(session.Gauge().Render())
//
// Every change to a session goes through Session.Apply, and the session
// journals each applied step, so an exploration can be recorded, persisted
// and replayed deterministically:
//
//	steps := aware.StepsFromLog(session.Log())
//	twin, _ := aware.Replay(table, aware.SessionOptions{}, steps)
//	_ = twin
//
// Everything is deterministic given explicit seeds and uses only the Go
// standard library.
package aware

import (
	"aware/internal/census"
	"aware/internal/colstore"
	"aware/internal/core"
	"aware/internal/dataset"
	"aware/internal/investing"
	"aware/internal/multcomp"
	"aware/internal/stats"
)

// Session is an AWARE exploration session; see internal/core.Session.
type Session = core.Session

// SessionOptions configures NewSession.
type SessionOptions = core.Options

// Hypothesis is one tracked hypothesis (a risk-gauge entry).
type Hypothesis = core.Hypothesis

// Visualization is one chart on the exploration canvas.
type Visualization = core.Visualization

// RiskGauge is the snapshot shown by the risk controller.
type RiskGauge = core.RiskGauge

// HoldoutValidator re-validates findings on a hold-out split (Section 4.1),
// either one mean comparison at a time (CompareMeans) or a whole recorded
// step log (ReplayLog).
type HoldoutValidator = core.HoldoutValidator

// NewSession opens an exploration session over a table.
func NewSession(data *Table, opts SessionOptions) (*Session, error) {
	return core.NewSession(data, opts)
}

// NewHoldoutValidator splits data into exploration/validation halves.
var NewHoldoutValidator = core.NewHoldoutValidator

// The Steps API: every session mutation is a serializable command value
// dispatched through Session.Apply, journaled in order (Session.Log) and
// deterministically replayable (Replay). The step types below form a closed
// set.
type (
	// Step is one serializable exploration command.
	Step = core.Step
	// StepResult reports what applying a Step produced.
	StepResult = core.StepResult
	// AppliedStep is one journal entry: the step plus the IDs it produced.
	AppliedStep = core.AppliedStep
	// AddVisualization creates a chart (and, when filtered, its rule-2
	// default hypothesis).
	AddVisualization = core.AddVisualization
	// CompareVisualizations is heuristic rule 3's side-by-side comparison.
	CompareVisualizations = core.CompareVisualizations
	// CompareMeans overrides a comparison with a Welch t-test on means.
	CompareMeans = core.CompareMeans
	// CompareDistributions overrides a comparison with a two-sample KS test.
	CompareDistributions = core.CompareDistributions
	// TestAgainstExpectation tests an observed distribution against stated
	// expected proportions.
	TestAgainstExpectation = core.TestAgainstExpectation
	// DeclareDescriptive deletes the hypothesis attached to a visualization.
	DeclareDescriptive = core.DeclareDescriptive
	// Star marks a hypothesis as an important discovery.
	Star = core.Star
	// DeriveColumn extends the session's table with a computed numeric column.
	DeriveColumn = core.DeriveColumn
	// JoinDataset equi-joins the session's table with a catalog dataset.
	JoinDataset = core.JoinDataset
	// GroupByHypothesis tests the independence of two attributes with a χ²
	// test on their contingency table.
	GroupByHypothesis = core.GroupByHypothesis
	// ReplayValidation is the outcome of re-validating a step log on a
	// hold-out split.
	ReplayValidation = core.ReplayValidation
	// HypothesisValidation is one hypothesis' hold-out verdict.
	HypothesisValidation = core.HypothesisValidation
)

// Step construction, codec and replay.
var (
	// Replay reconstructs a session deterministically from a step sequence.
	Replay = core.Replay
	// StepsFromLog strips a journal down to its replayable step sequence.
	StepsFromLog = core.StepsFromLog
	// MarshalStep serializes a step to its JSON wire format.
	MarshalStep = core.MarshalStep
	// UnmarshalStep parses the JSON wire format into a step (strict).
	UnmarshalStep = core.UnmarshalStep
)

// ErrUnknownStep is returned by Session.Apply for steps outside the closed
// step set.
var ErrUnknownStep = core.ErrUnknownStep

// ErrJoinFansOut is returned by HashJoin, and by Session.Apply for a
// JoinDataset step, when a left row's key is held by more than one right row.
var ErrJoinFansOut = dataset.ErrJoinFansOut

// Data substrate re-exports.
type (
	// Table is an immutable columnar table.
	Table = dataset.Table
	// Column is a typed column of a Table.
	Column = dataset.Column
	// Predicate filters table rows.
	Predicate = dataset.Predicate
	// Equals matches a categorical value.
	Equals = dataset.Equals
	// In matches any of a set of categorical values.
	In = dataset.In
	// Range matches a numeric interval.
	Range = dataset.Range
	// GreaterThan matches numeric values above a threshold.
	GreaterThan = dataset.GreaterThan
	// Not negates a predicate.
	Not = dataset.Not
	// And is a conjunction of predicates (a filter chain).
	And = dataset.And
	// Or is a disjunction of predicates.
	Or = dataset.Or
	// Selection is a dense bitmap of selected rows, produced by compiling a
	// predicate with Table.Where.
	Selection = dataset.Selection
	// View is a zero-copy filtered look at a table (table + Selection).
	View = dataset.View
	// SelectionCache memoizes compiled filter bitmaps for one immutable
	// table, shareable across concurrent sessions and bounded in bytes.
	SelectionCache = dataset.SelectionCache
	// Pool is the bounded worker pool the morsel-parallel kernels execute on;
	// pin one to a table with Table.SetPool (or via SessionOptions.Pool).
	Pool = dataset.Pool
	// PoolStats is a snapshot of a pool's execution counters.
	PoolStats = dataset.PoolStats
	// WordArena recycles Selection bitmap words across filter compiles; pin
	// one to a table with Table.SetArena (or via SessionOptions.Arena) so
	// steady-state filters allocate zero words.
	WordArena = dataset.WordArena
	// ArenaStats is a snapshot of a WordArena's recycling counters.
	ArenaStats = dataset.ArenaStats
	// Expr is a computed-column expression (arithmetic and bucketing over
	// numeric columns), evaluated by Table.Derive.
	Expr = dataset.Expr
	// Col references a numeric column inside an Expr.
	Col = dataset.Col
	// Const is a numeric literal inside an Expr.
	Const = dataset.Const
	// Binary combines two expressions with +, -, * or /.
	Binary = dataset.Binary
	// Bucket floors an expression to equal-width buckets.
	Bucket = dataset.Bucket
	// CrossTab is the contingency table of two attributes over a View.
	CrossTab = dataset.CrossTab
)

// Column constructors.
var (
	NewTable             = dataset.NewTable
	NewFloatColumn       = dataset.NewFloatColumn
	NewIntColumn         = dataset.NewIntColumn
	NewCategoricalColumn = dataset.NewCategoricalColumn
	NewBoolColumn        = dataset.NewBoolColumn
	LoadCSV              = dataset.LoadCSV
	// NewIn builds an In predicate with canonically sorted values and an O(1)
	// membership set.
	NewIn = dataset.NewIn
	// NewSelectionCache builds a shared filter-bitmap cache over a table,
	// bounded to 32 MiB of bitmap and key bytes by evicting arbitrary
	// entries (see SelectionCache for why 32 MiB).
	NewSelectionCache = dataset.NewSelectionCache
	// CanonicalPredicateKey serializes a predicate into its JSON wire form
	// with In values and And/Or terms sorted, so spellings that differ only
	// in those orders serialize equal. The selection cache keys by it only
	// the filters it cannot key by the codes they select.
	CanonicalPredicateKey = dataset.CanonicalPredicateKey
	// NewPool builds a bounded execution pool for the morsel-parallel kernels
	// (workers <= 0 means GOMAXPROCS; 1 pins execution to the caller).
	NewPool = dataset.NewPool
	// DefaultPool returns the process-wide shared execution pool.
	DefaultPool = dataset.DefaultPool
	// NewWordArena builds a Selection word arena for tables of a fixed row
	// count.
	NewWordArena = dataset.NewWordArena
	// HashJoin equi-joins two filtered views into a new table as a keyed
	// lookup: one row per left row whose key a right row holds, in left row
	// order; a left key two or more right rows hold fails with
	// ErrJoinFansOut.
	HashJoin = dataset.HashJoin
	// MarshalExpr serializes a computed-column expression to JSON.
	MarshalExpr = dataset.MarshalExpr
	// UnmarshalExpr parses the expression JSON wire format (strict).
	UnmarshalExpr = dataset.UnmarshalExpr
)

// Storage engine re-exports: the column store under every Table and its
// mmap-able snapshot format (*.aware). Table.Snapshot writes a snapshot
// atomically and deterministically; OpenSnapshot maps one back in with full
// structural + checksum validation (zero re-parse — the awared -data restart
// path). See internal/colstore for the format specification.
type (
	// ColumnStore is the structure-of-arrays column store backing a Table.
	ColumnStore = colstore.Store
	// ColumnSchema types one ingested column by name and kind.
	ColumnSchema = colstore.ColumnSchema
	// Schema is the ordered column typing used by the streaming ingesters.
	Schema = colstore.Schema
	// RowBuilder streams rows into a snapshot file in O(1) row memory.
	RowBuilder = colstore.RowBuilder
)

// Snapshot and ingestion functions.
var (
	// OpenSnapshot mmaps (or, off unix, heap-loads) a snapshot into a Table.
	OpenSnapshot = dataset.OpenSnapshot
	// NewRowBuilder opens a streaming snapshot builder for a schema.
	NewRowBuilder = colstore.NewRowBuilder
	// IngestCSVFile streams a CSV file into a snapshot (nil schema = infer).
	IngestCSVFile = colstore.IngestCSVFile
	// IngestJSONLFile streams a JSONL file into a snapshot (nil schema = infer).
	IngestJSONLFile = colstore.IngestJSONLFile
)

// Typed snapshot load errors: corruption and format-version mismatches are
// reported, never panicked on.
var (
	// ErrBadSnapshot reports a structurally invalid or corrupt snapshot.
	ErrBadSnapshot = colstore.ErrBadSnapshot
	// ErrSnapshotVersion reports an unsupported snapshot format version.
	ErrSnapshotVersion = colstore.ErrSnapshotVersion
)

// Census data generation re-exports.
type (
	// CensusConfig controls the synthetic census generator.
	CensusConfig = census.Config
	// Workflow is a stream of user-study hypotheses.
	Workflow = census.Workflow
	// WorkflowConfig controls the workflow generator.
	WorkflowConfig = census.WorkflowConfig
)

// Census generation functions.
var (
	GenerateCensus   = census.Generate
	RandomizeCensus  = census.Randomize
	GenerateWorkflow = census.GenerateWorkflow
)

// α-investing re-exports for users who want the procedure without the
// session layer (for example automated screening pipelines).
type (
	// InvestingConfig is the mFDR control target (α, η, ω).
	InvestingConfig = investing.Config
	// InvestingPolicy assigns a level to each incoming test.
	InvestingPolicy = investing.Policy
	// Investor drives a policy over a stream of p-values.
	Investor = investing.Investor
	// Decision records one α-investing step.
	Decision = investing.Decision
	// TestContext carries support metadata for ψ-support.
	TestContext = investing.TestContext
)

// Investing constructors with the paper's parameters available as defaults.
var (
	DefaultInvestingConfig = investing.DefaultConfig
	NewInvestingConfig     = investing.NewConfig
	NewInvestor            = investing.NewInvestor
	NewFarsighted          = investing.NewFarsighted
	NewFixed               = investing.NewFixed
	NewHopeful             = investing.NewHopeful
	NewHybrid              = investing.NewHybrid
	NewSupport             = investing.NewSupport
	BestFootForward        = investing.BestFootForward
)

// Batch procedures for offline / retrospective correction.
type (
	// BatchProcedure is a classic multiple-testing procedure over a complete
	// p-value vector.
	BatchProcedure = multcomp.Procedure
	// BatchOutcome is the confusion matrix of a run against ground truth.
	BatchOutcome = multcomp.Outcome
)

// Batch procedure values.
var (
	Bonferroni        = multcomp.Bonferroni{}
	BenjaminiHochberg = multcomp.BenjaminiHochberg{}
	SequentialFDR     = multcomp.SequentialFDR{}
	EvaluateOutcome   = multcomp.Evaluate
)

// Statistical building blocks.
type (
	// TestResult is the outcome of a single statistical test.
	TestResult = stats.TestResult
	// Alternative selects the tested tail(s).
	Alternative = stats.Alternative
)

// Statistical test functions and constants.
var (
	WelchTTest              = stats.WelchTTest
	TwoSampleTTest          = stats.TwoSampleTTest
	MannWhitneyU            = stats.MannWhitneyU
	KolmogorovSmirnov       = stats.KolmogorovSmirnov
	FisherExact             = stats.FisherExact
	ChiSquaredGoodnessOfFit = stats.ChiSquaredGoodnessOfFit
	ChiSquaredIndependence  = stats.ChiSquaredIndependence
	NewRNG                  = stats.NewRNG
)

// SessionReport is the JSON-exportable snapshot of a session.
type SessionReport = core.Report

// ReadSessionReport parses the JSON report GET /v1/sessions/{id}/report
// serves.
var ReadSessionReport = core.ReadReport

// GeneralizedInvestor exposes the Aharoni–Rosset generalized α-investing
// bookkeeping for custom spending schemes.
type GeneralizedInvestor = investing.GeneralizedInvestor

// NewGeneralizedInvestor builds a generalized investor with wealth α·η.
var NewGeneralizedInvestor = investing.NewGeneralizedInvestor

// Adaptive batch procedures (π0-aware variants of BH).
var (
	AdaptiveBH  = multcomp.StoreyAdaptiveBH{}
	TwoStageBH  = multcomp.TwoStageAdaptiveBH{}
	EstimatePi0 = multcomp.EstimatePi0
)

// Tail constants.
const (
	TwoSided = stats.TwoSided
	Greater  = stats.Greater
	Less     = stats.Less
)

// DefaultAlpha is the control level used throughout the paper (0.05).
const DefaultAlpha = investing.DefaultAlpha
