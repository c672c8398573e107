package dataset

import (
	"errors"
	"math"
	"testing"

	"aware/internal/stats"
)

// sampleTable builds a small census-like table used across the tests.
func sampleTable(t *testing.T) *Table {
	t.Helper()
	gender := NewCategoricalColumn("gender", []string{"male", "female", "male", "female", "male", "female", "male", "female"})
	highSalary := NewBoolColumn("salary_over_50k", []bool{true, false, true, false, true, true, false, false})
	age := NewFloatColumn("age", []float64{25, 32, 47, 51, 38, 29, 60, 44})
	edu := NewCategoricalColumn("education", []string{"hs", "phd", "bachelor", "phd", "master", "hs", "bachelor", "master"})
	income := NewIntColumn("income", []int64{40, 80, 62, 75, 55, 38, 45, 52})
	tab, err := NewTable(gender, highSalary, age, edu, income)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestNewTableValidation(t *testing.T) {
	a := NewFloatColumn("a", []float64{1, 2})
	b := NewFloatColumn("b", []float64{1, 2, 3})
	if _, err := NewTable(a, b); !errors.Is(err, ErrLengthMismatch) {
		t.Error("expected length mismatch error")
	}
	dup := NewFloatColumn("a", []float64{3, 4})
	if _, err := NewTable(a, dup); !errors.Is(err, ErrColumnExists) {
		t.Error("expected duplicate column error")
	}
	if _, err := NewTable(a, nil); err == nil {
		t.Error("expected nil column error")
	}
	empty, err := NewTable()
	if err != nil || empty.NumRows() != 0 || empty.NumColumns() != 0 {
		t.Error("empty table should be valid")
	}
}

func TestTableBasicAccessors(t *testing.T) {
	tab := sampleTable(t)
	if tab.NumRows() != 8 || tab.NumColumns() != 5 {
		t.Fatalf("shape = %d x %d", tab.NumRows(), tab.NumColumns())
	}
	if !tab.HasColumn("age") || tab.HasColumn("missing") {
		t.Error("HasColumn mismatch")
	}
	if _, err := tab.Column("missing"); !errors.Is(err, ErrColumnNotFound) {
		t.Error("expected column-not-found error")
	}
	names := tab.ColumnNames()
	if names[0] != "gender" || names[4] != "income" {
		t.Errorf("column names %v", names)
	}
	if tab.Describe() == "" {
		t.Error("Describe should not be empty")
	}
}

func TestColumnTypedAccess(t *testing.T) {
	tab := sampleTable(t)
	ages, err := tab.Floats("age")
	if err != nil || len(ages) != 8 || ages[0] != 25 {
		t.Fatalf("Floats(age) = %v, %v", ages, err)
	}
	incomes, err := tab.Floats("income")
	if err != nil || incomes[1] != 80 {
		t.Fatalf("Floats(income) = %v, %v", incomes, err)
	}
	if _, err := tab.Floats("gender"); !errors.Is(err, ErrTypeMismatch) {
		t.Error("expected type mismatch for categorical->float")
	}
	genders, err := tab.Strings("gender")
	if err != nil || genders[0] != "male" {
		t.Fatalf("Strings(gender) = %v, %v", genders, err)
	}
	bools, err := tab.Strings("salary_over_50k")
	if err != nil || bools[0] != "true" || bools[1] != "false" {
		t.Fatalf("Strings(bool) = %v, %v", bools, err)
	}
	if _, err := tab.Strings("age"); !errors.Is(err, ErrTypeMismatch) {
		t.Error("expected type mismatch for float->string")
	}
	col, _ := tab.Column("salary_over_50k")
	v, err := col.Bool(0)
	if err != nil || !v {
		t.Errorf("Bool(0) = %v, %v", v, err)
	}
	ageCol, _ := tab.Column("age")
	if _, err := ageCol.Bool(0); !errors.Is(err, ErrTypeMismatch) {
		t.Error("expected type mismatch for float->bool")
	}
	if ColumnType(99).String() == "" || Float64.String() != "float64" {
		t.Error("ColumnType.String mismatch")
	}
}

func TestCategoriesAndCounts(t *testing.T) {
	tab := sampleTable(t)
	cats, err := tab.Categories("education")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"bachelor", "hs", "master", "phd"}
	if len(cats) != len(want) {
		t.Fatalf("categories %v", cats)
	}
	for i := range want {
		if cats[i] != want[i] {
			t.Fatalf("categories %v, want %v", cats, want)
		}
	}
	counts, err := tab.ValueCounts("gender")
	if err != nil || counts["male"] != 4 || counts["female"] != 4 {
		t.Fatalf("ValueCounts = %v, %v", counts, err)
	}
}

func TestSelectAndFilter(t *testing.T) {
	tab := sampleTable(t)
	sub, err := tab.Select([]int{0, 2, 4})
	if err != nil || sub.NumRows() != 3 {
		t.Fatalf("Select: %v, %v", sub, err)
	}
	if _, err := tab.Select([]int{99}); err == nil {
		t.Error("expected out-of-range error")
	}

	males, err := tab.Filter(Equals{Column: "gender", Value: "male"})
	if err != nil || males.NumRows() != 4 {
		t.Fatalf("Filter males: %d, %v", males.NumRows(), err)
	}
	rich, err := tab.Filter(Equals{Column: "salary_over_50k", Value: "true"})
	if err != nil || rich.NumRows() != 4 {
		t.Fatalf("Filter rich: %d, %v", rich.NumRows(), err)
	}
	// Chain: male and high salary.
	chain := And{Terms: []Predicate{
		Equals{Column: "gender", Value: "male"},
		Equals{Column: "salary_over_50k", Value: "true"},
	}}
	both, err := tab.Filter(chain)
	if err != nil || both.NumRows() != 3 {
		t.Fatalf("Filter chain: %d, %v", both.NumRows(), err)
	}
	// Negation (the dashed-line selection of Figure 1C).
	notRich, err := tab.Filter(Not{Inner: Equals{Column: "salary_over_50k", Value: "true"}})
	if err != nil || notRich.NumRows() != 4 {
		t.Fatalf("Filter not rich: %d, %v", notRich.NumRows(), err)
	}
	// Numeric predicates.
	old, err := tab.Filter(GreaterThan{Column: "age", Threshold: 45})
	if err != nil || old.NumRows() != 3 {
		t.Fatalf("Filter old: %d, %v", old.NumRows(), err)
	}
	mid, err := tab.Filter(Range{Column: "age", Low: 30, High: 50})
	if err != nil || mid.NumRows() != 4 {
		t.Fatalf("Filter mid: %d, %v", mid.NumRows(), err)
	}
	// In and Or.
	grad, err := tab.Filter(In{Column: "education", Values: []string{"master", "phd"}})
	if err != nil || grad.NumRows() != 4 {
		t.Fatalf("Filter grad: %d, %v", grad.NumRows(), err)
	}
	either, err := tab.Filter(Or{Terms: []Predicate{
		Equals{Column: "education", Value: "phd"},
		GreaterThan{Column: "age", Threshold: 55},
	}})
	if err != nil || either.NumRows() != 3 {
		t.Fatalf("Filter or: %d, %v", either.NumRows(), err)
	}
	// Nil predicate returns everything.
	all, err := tab.Filter(nil)
	if err != nil || all.NumRows() != tab.NumRows() {
		t.Fatal("nil predicate should match all rows")
	}
	// Where agrees with Filter.
	sel, err := tab.Where(chain)
	if err != nil || sel.Count() != 3 {
		t.Fatalf("Where(chain).Count() = %d, %v", sel.Count(), err)
	}
	// Errors propagate.
	if _, err := tab.Filter(Equals{Column: "missing", Value: "x"}); err == nil {
		t.Error("expected missing column error")
	}
	if _, err := tab.Where(GreaterThan{Column: "gender", Threshold: 1}); err == nil {
		t.Error("expected type error")
	}
}

func TestPredicateDescriptions(t *testing.T) {
	cases := []struct {
		pred Predicate
		want string
	}{
		{Equals{"gender", "male"}, "gender = male"},
		{Not{Equals{"gender", "male"}}, "not(gender = male)"},
		// In renders its values sorted, however the predicate was written.
		{In{Column: "education", Values: []string{"phd", "master"}}, "education in {master, phd}"},
		{NewIn("education", "phd", "master"), "education in {master, phd}"},
		{GreaterThan{"age", 45}, "age > 45"},
		{Range{"age", 30, 50}, "age in [30, 50)"},
		{And{}, "true"},
		{Or{}, "false"},
		{And{Terms: []Predicate{Equals{"a", "1"}, Equals{"b", "2"}}}, "a = 1 and b = 2"},
		{Or{Terms: []Predicate{Equals{"a", "1"}, Equals{"b", "2"}}}, "(a = 1 or b = 2)"},
	}
	for _, c := range cases {
		if got := c.pred.Describe(); got != c.want {
			t.Errorf("Describe = %q, want %q", got, c.want)
		}
	}
	// Empty And matches everything, empty Or matches nothing.
	tab := sampleTable(t)
	selAnd, err := tab.Where(And{})
	if err != nil {
		t.Fatal(err)
	}
	selOr, err := tab.Where(Or{})
	if err != nil {
		t.Fatal(err)
	}
	if selAnd.Count() != tab.NumRows() || selOr.Count() != 0 {
		t.Errorf("empty And/Or counts = %d/%d", selAnd.Count(), selOr.Count())
	}
}

func TestGroupByAndMeans(t *testing.T) {
	tab := sampleTable(t)
	groups, err := tab.GroupBy("gender")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 || groups[0].Value != "female" || groups[0].Count != 4 {
		t.Fatalf("GroupBy = %v", groups)
	}
}

func TestSampleSplitShuffle(t *testing.T) {
	tab := sampleTable(t)
	rng := stats.NewRNG(3)

	half, err := tab.Sample(rng, 0.5)
	if err != nil || half.NumRows() != 4 {
		t.Fatalf("Sample(0.5) = %d rows, %v", half.NumRows(), err)
	}
	tiny, err := tab.Sample(rng, 0.01)
	if err != nil || tiny.NumRows() != 1 {
		t.Fatalf("Sample(0.01) = %d rows, %v", tiny.NumRows(), err)
	}
	full, err := tab.Sample(rng, 1)
	if err != nil || full.NumRows() != 8 {
		t.Fatalf("Sample(1) = %d rows, %v", full.NumRows(), err)
	}
	if _, err := tab.Sample(rng, 0); err == nil {
		t.Error("expected error for fraction 0")
	}
	if _, err := tab.Sample(nil, 0.5); err == nil {
		t.Error("expected error for nil rng")
	}

	explore, validate, err := tab.Split(rng, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if explore.NumRows()+validate.NumRows() != tab.NumRows() {
		t.Errorf("split sizes %d + %d", explore.NumRows(), validate.NumRows())
	}
	if explore.NumRows() != 6 {
		t.Errorf("exploration rows = %d", explore.NumRows())
	}
	if _, _, err := tab.Split(rng, 1.5); err == nil {
		t.Error("expected error for bad fraction")
	}
	if _, _, err := tab.Split(nil, 0.5); err == nil {
		t.Error("expected error for nil rng")
	}

	shuffled, err := tab.Shuffle(rng, "age")
	if err != nil {
		t.Fatal(err)
	}
	if shuffled.NumRows() != tab.NumRows() {
		t.Error("shuffle changed row count")
	}
	origAges, _ := tab.Floats("age")
	newAges, _ := shuffled.Floats("age")
	// Same multiset of values.
	sumOrig, sumNew := 0.0, 0.0
	for i := range origAges {
		sumOrig += origAges[i]
		sumNew += newAges[i]
	}
	if math.Abs(sumOrig-sumNew) > 1e-9 {
		t.Error("shuffle altered values")
	}
	// Untouched columns are shared.
	origGender, _ := tab.Strings("gender")
	newGender, _ := shuffled.Strings("gender")
	for i := range origGender {
		if origGender[i] != newGender[i] {
			t.Error("unshuffled column changed")
		}
	}
	if _, err := tab.Shuffle(rng, "missing"); err == nil {
		t.Error("expected missing column error")
	}
	if _, err := tab.Shuffle(nil, "age"); err == nil {
		t.Error("expected nil rng error")
	}
	all, err := tab.ShuffleAll(rng)
	if err != nil || all.NumRows() != tab.NumRows() {
		t.Fatalf("ShuffleAll: %v", err)
	}
}

func TestSampleOnEmptyTable(t *testing.T) {
	empty, _ := NewTable(NewFloatColumn("x", nil))
	if _, err := empty.Sample(stats.NewRNG(1), 0.5); !errors.Is(err, ErrEmptyTable) {
		t.Error("expected empty table error")
	}
	if _, _, err := empty.Split(stats.NewRNG(1), 0.5); !errors.Is(err, ErrEmptyTable) {
		t.Error("expected empty table error")
	}
}

// TestGatheredCodedColumnSharesDecodeTables: a coded numeric column gathered
// by Select, Shuffle, Split or a join — its left rows gathered, its right
// rows drawn per key code — shares its source's decode tables instead of
// rebuilding them, and still reads its own rows.
func TestGatheredCodedColumnSharesDecodeTables(t *testing.T) {
	age := NewFloatColumn("age", []float64{30, 40, 30, 50, 40, 60, 30, 50})
	tab, err := NewTable(age, NewCategoricalColumn("key", []string{"a", "b", "a", "c", "b", "c", "a", "b"}))
	if err != nil {
		t.Fatal(err)
	}
	pay := NewIntColumn("pay", []int64{7, 9, 8})
	dim, err := NewTable(NewCategoricalColumn("key", []string{"a", "b", "c"}), pay)
	if err != nil {
		t.Fatal(err)
	}
	shares := func(label string, out *Table, name string, src *Column) {
		t.Helper()
		c, err := out.Column(name)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if c == src || c.width == 0 || len(c.values) == 0 {
			t.Fatalf("%s: %s is not a gathered coded column", label, name)
		}
		if &c.values[0] != &src.values[0] || &c.rank[0] != &src.rank[0] || &c.distinct[0] != &src.distinct[0] {
			t.Errorf("%s: %s rebuilt its decode tables", label, name)
		}
	}
	sel, err := tab.Select([]int{3, 0, 5})
	if err != nil {
		t.Fatal(err)
	}
	shares("Select", sel, "age", age)
	if v := sel.columns[0].floatAt(0); v != 50 {
		t.Errorf("Select: row 0 reads %v, want 50", v)
	}
	shuffled, err := tab.Shuffle(stats.NewRNG(1), "age")
	if err != nil {
		t.Fatal(err)
	}
	shares("Shuffle", shuffled, "age", age)
	exploration, validation, err := tab.Split(stats.NewRNG(2), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	shares("Split exploration", exploration, "age", age)
	shares("Split validation", validation, "age", age)
	left, err := tab.View(Range{Column: "age", Low: 35, High: 70})
	if err != nil {
		t.Fatal(err)
	}
	right, err := dim.View(nil)
	if err != nil {
		t.Fatal(err)
	}
	joined, err := HashJoin(left, right, "key", "key", "dim_")
	if err != nil {
		t.Fatal(err)
	}
	shares("join left", joined, "age", age)
	shares("join right", joined, "dim_pay", pay)
	if v := joined.byName["dim_pay"].intAt(0); v != 9 {
		t.Errorf("join: row 0's dim_pay reads %v, want 9", v)
	}
}
