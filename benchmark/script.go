package main

import (
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"strings"

	"aware/internal/census"
	"aware/internal/core"
	"aware/internal/dataset"
)

// The benchmark owns its step scripts: every session is a deterministic
// function of (seed, analyst, session index), so a run's inputs are fully
// described by the seed and the program under test only ever sees the
// generated requests.

// opKind is one operation of a session script. The HTTP drivers map each kind
// to its endpoint; the library driver maps it to Session.Apply or an accessor.
type opKind uint8

const (
	opCreate          opKind = iota // POST /v1/sessions
	opViz                           // POST .../visualizations (typed endpoint)
	opCompare                       // POST .../compare (rule 3)
	opStepViz                       // POST .../steps {"op":"add_visualization"}
	opStepMeans                     // POST .../steps {"op":"compare_means"}
	opStepStar                      // POST .../steps {"op":"star"}
	opDerive                        // POST .../derive
	opJoin                          // POST .../join
	opGroupBy                       // POST .../groupby
	opGauge                         // GET  .../gauge
	opLog                           // GET  .../log
	opReport                        // GET  .../report
	opHoldoutValidate               // POST .../holdout/validate
	opHoldoutReplay                 // POST .../holdout/replay
	opDelete                        // DELETE /v1/sessions/{id}
	numOpKinds
)

var opKindNames = [numOpKinds]string{
	"create", "viz", "compare", "step_viz", "step_means", "step_star", "derive",
	"join", "group_by", "gauge", "log", "report", "holdout_validate",
	"holdout_replay", "delete",
}

func (k opKind) String() string { return opKindNames[k] }

// opClass groups kinds into the populations the end-to-end metrics are taken
// over.
type opClass uint8

const (
	classStep  opClass = iota // hypothesis-creating ops: viz, compare, raw steps, derive, join, group_by
	classRead                 // gauge, report, log
	classOther                // create, delete, star, holdout validation
)

func (k opKind) class() opClass {
	switch k {
	case opViz, opCompare, opStepViz, opStepMeans, opDerive, opJoin, opGroupBy:
		return classStep
	case opGauge, opLog, opReport:
		return classRead
	default:
		return classOther
	}
}

// op is one scripted operation. Fields beyond kind are populated per kind.
type op struct {
	kind   opKind
	target string
	pred   *poolPred // filter, nil for none
	a, b   int       // visualization IDs (1-based, per session)
	attr   string    // numeric attribute of means comparisons and holdout checks
	hyp    int       // hypothesis ID for star
	// raw is the pre-encoded core step wire document of the POST /steps kinds.
	raw json.RawMessage
	// derive / join / group_by
	name     string
	expr     dataset.Expr
	exprJSON json.RawMessage
	row, col string
}

// label names the op's row in the ladder's budget table: the kind, with
// group-bys over a numeric axis (binned before counting) kept apart.
func (o *op) label() string {
	if o.kind == opGroupBy && (numericAxis(o.row) || numericAxis(o.col)) {
		return o.kind.String() + "/binned"
	}
	return o.kind.String()
}

func numericAxis(col string) bool { return col == "hours_band" || col == "dim_median_pay" }

// step returns the core.Step an op applies, or nil for ops that are not steps.
func (o *op) step() core.Step {
	var filter dataset.Predicate
	if o.pred != nil {
		filter = o.pred.pred
	}
	switch o.kind {
	case opViz, opStepViz:
		return core.AddVisualization{Target: o.target, Filter: filter}
	case opCompare:
		return core.CompareVisualizations{A: o.a, B: o.b}
	case opStepMeans:
		return core.CompareMeans{Attribute: o.attr, A: o.a, B: o.b}
	case opStepStar:
		return core.Star{Hypothesis: o.hyp, Starred: true}
	case opDerive:
		return core.DeriveColumn{Name: o.name, Expr: o.expr}
	case opJoin:
		return core.JoinDataset{Dataset: dimDataset, LeftKey: census.ColOccupation, RightKey: "occupation", Prefix: "dim_"}
	case opGroupBy:
		return core.GroupByHypothesis{RowAttr: o.row, ColAttr: o.col, Filter: filter}
	}
	return nil
}

// poolPred is one predicate of a workload's pool with its wire encoding and
// the categorical columns it constrains (targets and group-by axes avoid
// those, so no test degenerates to a single category).
type poolPred struct {
	pred dataset.Predicate
	json json.RawMessage
	cats []string
}

// uses reports whether the predicate constrains col. The joined dim_* columns
// are functions of occupation, so an occupation filter constrains them too.
func (p *poolPred) uses(col string) bool {
	if strings.HasPrefix(col, "dim_") {
		col = census.ColOccupation
	}
	for _, c := range p.cats {
		if c == col {
			return true
		}
	}
	return false
}

// catValue is one categorical value predicates may constrain, with the share
// of census rows that hold it (from the generator's own probabilities; the
// planted correlations move it a little, which is fine — it only sizes bands).
type catValue struct {
	value string
	share float64
}

// catValues lists, per column, the values held by at least ~14 % of the rows:
// a predicate over a rarer value would leave the statistical tests a
// degenerate sub-population.
var catValues = []struct {
	col    string
	values []catValue
}{
	{census.ColGender, []catValue{{"Male", 0.49}, {"Female", 0.49}}},
	{census.ColEducation, []catValue{{"HS", 0.45}, {"Bachelor", 0.35}, {"Master", 0.15}}},
	{census.ColMaritalStatus, []catValue{{"Married", 0.45}, {"Never-Married", 0.20}, {"Not-Married", 0.27}}},
	{census.ColOccupation, []catValue{{"Admin", 0.14}, {"Craft", 0.14}, {"Exec-Managerial", 0.18}, {"Prof-Specialty", 0.24}, {"Sales", 0.14}, {"Service", 0.14}}},
	{census.ColSalaryOver50K, []catValue{{"true", 0.25}, {"false", 0.75}}},
}

// catTargets are the chart targets. The boolean column is deliberately not
// one: Table.Categories materializes a string per row for a bool column (≈55 ms
// at 300k rows against 2 ms for the rest of the step), so how often sessions
// happened to chart it would decide every p95 and differ from seed to seed.
// It stays a filter column and a group-by axis.
var catTargets = []string{census.ColGender, census.ColEducation, census.ColMaritalStatus, census.ColOccupation}

// targetSelectivity is the share of rows every pool predicate aims to select.
// Aggregation cost follows the selected rows, and the driver compares runs
// made with different seeds: were selectivity left to chance (2 %..90 %), the
// few predicates Zipf makes hot would decide a run's cost and seeds would
// differ by tens of percent. Sizing every age term so that the conjunction
// selects about a tenth of the rows keeps seeds statistically alike.
const targetSelectivity = 0.10

// ageAtLeast is the share of census rows with age >= a, for integer a in the
// generator's untruncated range: age is round(40 + 13 z).
func ageAtLeast(a int) float64 {
	return 0.5 * math.Erfc((float64(a)-0.5-40)/13/math.Sqrt2)
}

// ageTerm draws an age term selecting ≈ mass of the rows: a band around a
// random centre three times out of four, an open-ended threshold otherwise.
// Bounds get random fractions inside their integer cell: ages are whole
// numbers, so the fraction changes the cache key and not the selected rows.
func ageTerm(rng *rand.Rand, mass float64) dataset.Predicate {
	frac := func() float64 { return math.Round(rng.Float64()*98+1) / 100 } // 0.01..0.99
	if rng.Intn(4) == 0 {
		a := 18
		for a < 75 && ageAtLeast(a) > mass {
			a++
		}
		return dataset.GreaterThan{Column: census.ColAge, Threshold: float64(a-1) + frac()}
	}
	lo := 33 + rng.Intn(15)
	hi := lo + 1 // selects ages lo..hi-1
	for (lo > 19 || hi < 80) && ageAtLeast(lo)-ageAtLeast(hi) < mass {
		// grow the band towards the denser side, so it stays centred on the mode
		if hi >= 80 || (lo > 19 && ageAtLeast(lo-1)-ageAtLeast(lo) > ageAtLeast(hi)-ageAtLeast(hi+1)) {
			lo--
		} else {
			hi++
		}
	}
	return dataset.Range{Column: census.ColAge, Low: float64(lo-1) + frac(), High: float64(hi-1) + frac()}
}

// newPredPool builds n distinct predicates of about targetSelectivity each.
// All numeric terms constrain age, which leaves hours_per_week free as the
// attribute of every means comparison.
func newPredPool(seed int64, n int) ([]*poolPred, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed_9001))
	seen := make(map[string]bool, n)
	pool := make([]*poolPred, 0, n)
	var bare []dataset.Predicate // age terms that are pool entries on their own
	for attempts := 0; len(pool) < n; attempts++ {
		if attempts > 50*n+1000 {
			return nil, fmt.Errorf("script: predicate pool stalled at %d/%d distinct predicates", len(pool), n)
		}
		var pred dataset.Predicate
		var cats []string
		if rng.Intn(8) == 0 { // the bare age term
			pred = ageTerm(rng, targetSelectivity)
			bare = append(bare, pred)
		} else { // an age term and one categorical term
			cv := catValues[rng.Intn(len(catValues))]
			cats = append(cats, cv.col)
			i := rng.Intn(len(cv.values))
			var cat dataset.Predicate = dataset.Equals{Column: cv.col, Value: cv.values[i].value}
			share := cv.values[i].share
			if len(cv.values) >= 3 && rng.Intn(3) == 0 {
				j := (i + 1 + rng.Intn(len(cv.values)-1)) % len(cv.values)
				cat = dataset.NewIn(cv.col, cv.values[i].value, cv.values[j].value)
				share += cv.values[j].share
			}
			age := ageTerm(rng, math.Min(0.85, targetSelectivity/share))
			if len(bare) > 0 && rng.Intn(8) == 0 {
				// Reuse an age term that is also a pool entry of its own, so
				// the cache's conjunction-prefix (partial hit) path is used.
				age = bare[rng.Intn(len(bare))]
			}
			pred = dataset.And{Terms: []dataset.Predicate{age, cat}}
		}
		key, err := dataset.CanonicalPredicateKey(pred)
		if err != nil {
			return nil, fmt.Errorf("script: canonical key: %w", err)
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		raw, err := dataset.MarshalPredicate(pred)
		if err != nil {
			return nil, fmt.Errorf("script: encoding predicate: %w", err)
		}
		pool = append(pool, &poolPred{pred: pred, json: raw, cats: cats})
	}
	return pool, nil
}

// dimDataset is the catalog name of the occupation dimension joined by the
// relational workload.
const dimDataset = "occupations"

// generator produces session scripts for one workload and seed.
type generator struct {
	wl   *workloadSpec
	seed int64
	pool []*poolPred
}

func newGenerator(wl *workloadSpec, seed int64, poolSize int) (*generator, error) {
	pool, err := newPredPool(seed, poolSize)
	if err != nil {
		return nil, err
	}
	return &generator{wl: wl, seed: seed, pool: pool}, nil
}

// sessionRNG seeds one session's choices from (seed, analyst, index) with a
// splitmix-style mix so neighbouring sessions do not share a random stream.
func (g *generator) sessionRNG(analyst, index int) *rand.Rand {
	x := uint64(g.seed)*0x9e3779b97f4a7c15 + uint64(analyst)*0xbf58476d1ce4e5b9 + uint64(index)*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return rand.New(rand.NewSource(int64(x)))
}

// consecutive returns the n pool entries of one library session: distinct
// within the session (every filter compiles) and, session after session, a
// walk through the whole pool.
func (g *generator) consecutive(analyst, index, n int) []*poolPred {
	first := (analyst*1_000_003 + index) * n
	preds := make([]*poolPred, n)
	for i := range preds {
		preds[i] = g.pool[(first+i)%len(g.pool)]
	}
	return preds
}

// targetAvoiding picks a chart target none of the predicates constrains.
func targetAvoiding(rng *rand.Rand, preds ...*poolPred) string {
	start := rng.Intn(len(catTargets))
	for i := range catTargets {
		t := catTargets[(start+i)%len(catTargets)]
		free := true
		for _, p := range preds {
			if p.uses(t) {
				free = false
				break
			}
		}
		if free {
			return t
		}
	}
	return census.ColHoursPerWeek
}

func stepVizJSON(target string, p *poolPred) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"op":"add_visualization","target":%q,"predicate":%s}`, target, p.json))
}

// session returns the script of one session.
func (g *generator) session(analyst, index int) []op {
	rng := g.sessionRNG(analyst, index)
	if g.wl.Relational {
		return g.relationalSession(rng, analyst, index)
	}
	if g.wl.Kind == kindLib {
		return g.coldSession(rng, analyst, index)
	}
	return g.httpSession(rng, index)
}

// httpSession is the interactive mix of the HTTP workloads: two filtered
// charts compared side by side, a third chart and a means test through the
// generic step endpoint, a star, and the three reads. Five hypotheses per
// session keeps every session inside its α-wealth whatever the verdicts (ten
// accepted nulls are affordable). Every sixteenth closed-loop session also runs
// the two hold-out validations; they split and re-scan the table (3-5 ms where
// a step takes 0.5), so a larger share would turn the server workloads back
// into kernel workloads.
func (g *generator) httpSession(rng *rand.Rand, index int) []op {
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(g.pool)-1))
	// Zipf(1.1) over the pool: a few predicates are hot, the tail is long.
	a := g.pool[zipf.Uint64()]
	b := g.pool[zipf.Uint64()]
	for b == a {
		b = g.pool[rng.Intn(len(g.pool))]
	}
	c := g.pool[zipf.Uint64()]
	target := targetAvoiding(rng, a, b)
	targetC := targetAvoiding(rng, c)
	holdout := g.wl.Kind != kindOpen && index%16 == 15
	ops := []op{
		{kind: opCreate},
		{kind: opViz, target: target, pred: a},
		{kind: opViz, target: target, pred: b},
		{kind: opCompare, a: 1, b: 2},
		{kind: opGauge},
		{kind: opStepViz, target: targetC, pred: c, raw: stepVizJSON(targetC, c)},
		{kind: opStepMeans, attr: census.ColHoursPerWeek, a: 1, b: 2,
			raw: json.RawMessage(fmt.Sprintf(`{"op":"compare_means","attribute":%q,"a":1,"b":2}`, census.ColHoursPerWeek))},
		{kind: opStepStar, hyp: 1, raw: json.RawMessage(`{"op":"star","hypothesis":1,"starred":true}`)},
	}
	if holdout {
		ops = append(ops, op{kind: opHoldoutValidate, attr: census.ColHoursPerWeek, pred: a})
	}
	ops = append(ops, op{kind: opLog})
	if holdout {
		ops = append(ops, op{kind: opHoldoutReplay})
	}
	return append(ops, op{kind: opReport}, op{kind: opDelete})
}

// coldSession is the library kernel workload: six charts over distinct
// filters, two side-by-side comparisons and one means test — nine hypotheses,
// every one of them a scan plus aggregations over the whole table.
func (g *generator) coldSession(rng *rand.Rand, analyst, index int) []op {
	preds := g.consecutive(analyst, index, 6)
	ops := []op{{kind: opCreate}}
	for i := 0; i < 6; i += 2 {
		target := targetAvoiding(rng, preds[i], preds[i+1])
		ops = append(ops,
			op{kind: opViz, target: target, pred: preds[i]},
			op{kind: opViz, target: target, pred: preds[i+1]})
	}
	ops = append(ops,
		op{kind: opCompare, a: 1, b: 2},
		op{kind: opGauge},
		op{kind: opCompare, a: 3, b: 4},
		op{kind: opStepMeans, attr: census.ColHoursPerWeek, a: 5, b: 6},
		op{kind: opLog},
		op{kind: opReport},
		op{kind: opDelete})
	return ops
}

// groupAxes are the attribute pairs the relational sessions test for
// independence; hours_band is the derived column (no predicate constrains hours, so no filter empties its bins), dim_* come from the join.
var groupAxes = [][2]string{
	{census.ColEducation, "dim_sector"},
	{"hours_band", census.ColSalaryOver50K},
	{census.ColGender, "dim_sector"},
	{census.ColMaritalStatus, "hours_band"},
	{census.ColEducation, census.ColSalaryOver50K},
	{"dim_median_pay", census.ColGender},
	{census.ColOccupation, census.ColMaritalStatus},
	{"hours_band", "dim_sector"},
}

// relationalSession derives a column, joins the occupation dimension and runs
// six group-by independence tests under different filters: every step lowers
// to an internal/plan tree.
func (g *generator) relationalSession(rng *rand.Rand, analyst, index int) []op {
	expr := dataset.Bucket{Arg: dataset.Col{Name: census.ColHoursPerWeek}, Width: 10}
	exprJSON, err := dataset.MarshalExpr(expr)
	if err != nil {
		panic(fmt.Sprintf("script: encoding the derive expression: %v", err)) // a fixed literal: only a bug can fail it
	}
	ops := []op{
		{kind: opCreate},
		{kind: opDerive, name: "hours_band", expr: expr, exprJSON: exprJSON},
		{kind: opJoin},
	}
	// Walk the pool and the axis pairs together, skipping a predicate that
	// constrains one of the axes it would be grouped over.
	first := (analyst*1_000_003 + index) * 6
	start := rng.Intn(len(groupAxes))
	for i, n := 0, 0; n < 6; i++ {
		axes := groupAxes[(start+i)%len(groupAxes)]
		p := g.pool[(first+i)%len(g.pool)]
		if p.uses(axes[0]) || p.uses(axes[1]) {
			continue
		}
		ops = append(ops, op{kind: opGroupBy, row: axes[0], col: axes[1], pred: p})
		n++
		if n == 3 {
			ops = append(ops, op{kind: opGauge})
		}
	}
	return append(ops, op{kind: opLog}, op{kind: opReport}, op{kind: opDelete})
}

// digestScripts folds the predicate pool and the first sessions of each
// analyst into h: together with the snapshot bytes this is the input digest
// that says two result files measured the same inputs.
func (g *generator) digestScripts(h hash.Hash, analysts, sessions int) {
	for _, p := range g.pool {
		h.Write(p.json)
		h.Write([]byte{'\n'})
	}
	for a := 0; a < analysts; a++ {
		for i := 0; i < sessions; i++ {
			for _, o := range g.session(a, i) {
				fmt.Fprintf(h, "%d|%s|%d|%d|%s|%d|%s|%s|%s|%s|", o.kind, o.target, o.a, o.b, o.attr, o.hyp, o.name, o.row, o.col, o.raw)
				if o.pred != nil {
					h.Write(o.pred.json)
				}
				h.Write(o.exprJSON)
				h.Write([]byte{'\n'})
			}
		}
	}
}
