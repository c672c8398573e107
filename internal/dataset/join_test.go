package dataset

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// This file is the differential test bed for the equi-join: for randomized
// table pairs over every joinable key type, filtered on both sides, on
// sequential and parallel pools, HashJoin must produce a table column-for-
// column identical to the nested-loop JoinOracle — one row per matched left
// row, in left row order — refuse exactly the joins the oracle refuses, and
// share the left table's columns exactly when the output is that table.

// JoinOracle is the nested-loop differential reference: every (left, right)
// row pair is compared through the row-at-a-time value accessors, with no
// hashing, no dictionary-code translation, no parallelism and no sharing. A
// selected left row with more than one selected right match refuses the join
// with ErrJoinFansOut.
func JoinOracle(left, right View, leftKey, rightKey, rightPrefix string) (*Table, error) {
	lc, rc, err := joinKeyColumns(left, right, leftKey, rightKey)
	if err != nil {
		return nil, err
	}
	if err := checkJoinSpans(left, right); err != nil {
		return nil, err
	}
	var lidx, ridx []int32
	var cmpErr error
	left.sel.ForEach(func(lrow int) {
		matches := 0
		right.sel.ForEach(func(rrow int) {
			if cmpErr != nil {
				return
			}
			eq, err := joinKeyEqual(lc, lrow, rc, rrow)
			if err != nil {
				cmpErr = err
				return
			}
			if eq {
				if matches == 0 {
					lidx = append(lidx, int32(lrow))
					ridx = append(ridx, int32(rrow))
				}
				matches++
			}
		})
		if matches > 1 && cmpErr == nil {
			cmpErr = fmt.Errorf("%w: left row %d matches %d right rows", ErrJoinFansOut, lrow, matches)
		}
	})
	if cmpErr != nil {
		return nil, cmpErr
	}
	cols := make([]*Column, 0, len(left.table.columns)+len(right.table.columns))
	for _, c := range left.table.columns {
		cols = append(cols, gather(nil, c.phys, lidx, c.Name))
	}
	for _, c := range right.table.columns {
		cols = append(cols, gather(nil, c.phys, ridx, rightPrefix+c.Name))
	}
	return NewTable(cols...)
}

// joinKeyEqual compares one key pair through the generic value accessors.
func joinKeyEqual(lc *Column, lrow int, rc *Column, rrow int) (bool, error) {
	switch lc.Type {
	case Categorical, Bool:
		lv, err := lc.StringAt(lrow)
		if err != nil {
			return false, err
		}
		rv, err := rc.StringAt(rrow)
		if err != nil {
			return false, err
		}
		return lv == rv, nil
	case Int64:
		return lc.intAt(lrow) == rc.intAt(rrow), nil
	default:
		return false, fmt.Errorf("%w: %s is %s", ErrJoinKeyType, lc.Name, lc.Type)
	}
}

// randomKeyedTable builds a join side: a key column of the given type plus one
// payload column per type, with key cardinality low enough that joins produce
// matches. colPrefix keeps the two sides' payload names distinct.
func randomKeyedTable(rng *rand.Rand, rows int, keyType ColumnType, colPrefix string) *Table {
	keyDomain := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "unmatched-" + colPrefix}
	strs := make([]string, rows)
	ints := make([]int64, rows)
	bools := make([]bool, rows)
	payload := make([]float64, rows)
	tags := make([]string, rows)
	for i := 0; i < rows; i++ {
		strs[i] = keyDomain[rng.Intn(len(keyDomain))]
		ints[i] = int64(rng.Intn(9) - 4) // includes negatives: uint64 bit-pattern keys
		bools[i] = rng.Intn(2) == 0
		payload[i] = float64(rng.Intn(1000))
		tags[i] = []string{"x", "y", "z"}[rng.Intn(3)]
	}
	var key *Column
	switch keyType {
	case Categorical:
		key = NewCategoricalColumn("key", strs)
	case Int64:
		key = NewIntColumn("key", ints)
	case Bool:
		key = NewBoolColumn("key", bools)
	default:
		panic("unjoinable key type in test generator")
	}
	tab, err := NewTable(
		key,
		NewFloatColumn(colPrefix+"_payload", payload),
		NewCategoricalColumn(colPrefix+"_tag", tags),
	)
	if err != nil {
		panic(err)
	}
	return tab
}

// sideView filters a join side with a simple predicate (sometimes none).
func sideView(t *testing.T, rng *rand.Rand, tab *Table, colPrefix string) View {
	t.Helper()
	var sel *Selection
	var err error
	switch rng.Intn(3) {
	case 0:
		sel = FullSelection(tab.NumRows())
	case 1:
		sel, err = tab.Where(Range{Column: colPrefix + "_payload", Low: 0, High: float64(rng.Intn(1000))})
	default:
		sel, err = tab.Where(NewIn(colPrefix+"_tag", "x", "z"))
	}
	if err != nil {
		t.Fatalf("side filter: %v", err)
	}
	v, err := NewView(tab, sel)
	if err != nil {
		t.Fatalf("NewView: %v", err)
	}
	return v
}

// keyString renders row's key the way the join compares it.
func keyString(key *Column, row int) string {
	if key.Type == Int64 {
		return fmt.Sprint(key.intAt(row))
	}
	v, _ := key.StringAt(row)
	return v
}

// dimensionTable builds a unique-key right side for left: one row per
// distinct value of left's key column, in random order, so every left row
// matches exactly one of its rows. drop leaves the first of those keys out,
// dup repeats it. Besides a coded payload and a tag, each row carries a bool
// and a wide float (one row holds a NaN), so every physical form of a right
// column is drawn through the join.
func dimensionTable(rng *rand.Rand, left *Table, drop, dup bool) *Table {
	key, _ := left.Column("key")
	var rows []int32
	seen := map[string]bool{}
	for row := 0; row < left.NumRows(); row++ {
		if v := keyString(key, row); !seen[v] {
			seen[v] = true
			rows = append(rows, int32(row))
		}
	}
	rng.Shuffle(len(rows), func(a, b int) { rows[a], rows[b] = rows[b], rows[a] })
	if drop && len(rows) > 0 {
		rows = rows[1:]
	}
	if dup && len(rows) > 0 {
		rows = append(rows, rows[0])
	}
	payload := make([]float64, len(rows))
	tags := make([]string, len(rows))
	flags := make([]bool, len(rows))
	wide := make([]float64, len(rows))
	for i := range rows {
		payload[i] = float64(rng.Intn(1000))
		tags[i] = []string{"x", "y", "z"}[rng.Intn(3)]
		flags[i] = rng.Intn(2) == 0
		wide[i] = rng.NormFloat64()
	}
	if len(wide) > 0 {
		wide[rng.Intn(len(wide))] = math.NaN()
	}
	tab, err := NewTable(gather(nil, key.phys, rows, "key"), NewFloatColumn("r_payload", payload), NewCategoricalColumn("r_tag", tags),
		NewBoolColumn("r_flag", flags), NewFloatColumn("r_wide", wide))
	if err != nil {
		panic(err)
	}
	return tab
}

// absentKeyDimension gathers the rows of left whose key is not row 0's, so
// the gathered key's shared dictionary lists a value none of its rows holds,
// and builds a unique-key dimension over every value of left in which that
// value is missing or, with dup, held by two rows. A dimension join of the
// gathered rows still shares them: the value no row holds is never probed.
func absentKeyDimension(rng *rand.Rand, left *Table, dup bool) (gathered, dim *Table) {
	key, _ := left.Column("key")
	absent := keyString(key, 0)
	var keep []int
	for row := 0; row < left.NumRows(); row++ {
		if keyString(key, row) != absent {
			keep = append(keep, row)
		}
	}
	full := dimensionTable(rng, left, false, false)
	fullKey, _ := full.Column("key")
	var rows []int
	for row := 0; row < full.NumRows(); row++ {
		switch {
		case keyString(fullKey, row) != absent:
			rows = append(rows, row)
		case dup:
			rows = append(rows, row, row)
		}
	}
	gathered, err := left.Select(keep)
	if err != nil {
		panic(err)
	}
	if dim, err = full.Select(rows); err != nil {
		panic(err)
	}
	return gathered, dim
}

// withWideKey replaces tab's key with a categorical one over up to n distinct
// values, the first n rows holding each once: past 256 values its codes are
// two bytes wide.
func withWideKey(rng *rand.Rand, tab *Table, n int) *Table {
	strs := make([]string, tab.NumRows())
	for i := range strs {
		v := i
		if i >= n {
			v = rng.Intn(n)
		}
		strs[i] = fmt.Sprintf("k%04d", v)
	}
	out, err := NewTable(append([]*Column{NewCategoricalColumn("key", strs)}, tab.columns[1:]...)...)
	if err != nil {
		panic(err)
	}
	return out
}

// fanOuts renders, for every key a selected row of lv holds and two or more
// selected rows of rv hold, the clause a refusal names it by: the key column,
// the key (quoted unless an int) and its multiplicity.
func fanOuts(lv, rv View) map[string]bool {
	lc, _ := lv.table.Column("key")
	rc, _ := rv.table.Column("key")
	held := map[string]int{}
	rv.sel.ForEach(func(row int) { held[keyString(rc, row)]++ })
	out := map[string]bool{}
	lv.sel.ForEach(func(row int) {
		k := keyString(lc, row)
		if n := held[k]; n > 1 {
			if lc.Type != Int64 {
				k = strconv.Quote(k)
			}
			out[fmt.Sprintf("key %s is held by %d right rows", k, n)] = true
		}
	})
	return out
}

// requireJoinMatchesOracle joins lv to rv on "key". HashJoin must refuse with
// ErrJoinFansOut exactly when JoinOracle does, naming a key that fans out and
// its multiplicity. Otherwise it must equal the oracle cell for cell, the
// right columns that arrive with tallies must hold exactly those, and it must
// hold the left table's own columns, every one of them, exactly when its
// output is that table: every row selected and matched. It returns
// "refused", "shared" or "gathered".
func requireJoinMatchesOracle(t *testing.T, label string, lv, rv View) string {
	t.Helper()
	want, oracleErr := JoinOracle(lv, rv, "key", "key", "r_")
	got, err := HashJoin(lv, rv, "key", "key", "r_")
	if oracleErr != nil {
		if !errors.Is(oracleErr, ErrJoinFansOut) {
			t.Fatalf("%s: oracle: %v", label, oracleErr)
		}
		if !errors.Is(err, ErrJoinFansOut) {
			t.Fatalf("%s: hash join = %v, want ErrJoinFansOut (%v)", label, err, oracleErr)
		}
		clauses := fanOuts(lv, rv)
		named := err.Error()[strings.LastIndex(err.Error(), ": ")+2:]
		if !clauses[named] {
			t.Fatalf("%s: refusal %q names no key that fans out (%v)", label, err, clauses)
		}
		return "refused"
	}
	if err != nil {
		t.Fatalf("%s: hash join: %v", label, err)
	}
	requireTablesEqual(t, label, got, want)
	for _, c := range got.columns[len(lv.table.columns):] {
		if c.ref.codes == nil {
			continue // a wide right column the gather stored coded: tallied on first use
		}
		fresh := make([]int, c.dictLen())
		for row := 0; row < c.Len(); row++ {
			fresh[c.code(row)]++
		}
		if !slices.Equal(c.ref.codes, fresh) {
			t.Fatalf("%s: right column %s arrived with tallies %v, its rows hold %v", label, c.Name, c.ref.codes, fresh)
		}
	}
	shared := got.columns[0] == lv.table.columns[0]
	for i, c := range lv.table.columns {
		if (got.columns[i] == c) != shared {
			t.Fatalf("%s: left column %s shared = %v, column %s shared = %v", label, c.Name, !shared, lv.table.columns[0].Name, shared)
		}
	}
	if wantShared := lv.full() && want.NumRows() == lv.sel.n; shared != wantShared {
		t.Fatalf("%s: left columns shared = %v, want %v", label, shared, wantShared)
	}
	if shared {
		return "shared"
	}
	return "gathered"
}

// requireTablesEqual compares two tables cell for cell through the typed
// vectors (categorical columns via their decoded strings, since the two join
// paths share dictionaries with their source tables, not with each other).
func requireTablesEqual(t *testing.T, label string, a, b *Table) {
	t.Helper()
	if a.NumRows() != b.NumRows() {
		t.Fatalf("%s: %d rows vs %d", label, a.NumRows(), b.NumRows())
	}
	an, bn := a.ColumnNames(), b.ColumnNames()
	if len(an) != len(bn) {
		t.Fatalf("%s: %d columns vs %d", label, len(an), len(bn))
	}
	for i := range an {
		if an[i] != bn[i] {
			t.Fatalf("%s: column %d named %q vs %q", label, i, an[i], bn[i])
		}
		ac, _ := a.Column(an[i])
		bc, _ := b.Column(bn[i])
		if ac.Type != bc.Type {
			t.Fatalf("%s: column %q type %v vs %v", label, an[i], ac.Type, bc.Type)
		}
		for row := 0; row < a.NumRows(); row++ {
			var x, y any
			switch ac.Type {
			case Float64:
				x, y = math.Float64bits(ac.floatAt(row)), math.Float64bits(bc.floatAt(row))
			case Int64:
				x, y = ac.intAt(row), bc.intAt(row)
			default:
				x, y = ac.dict[ac.code(row)], bc.dict[bc.code(row)]
			}
			if x != y {
				t.Fatalf("%s: column %q row %d: %v vs %v", label, an[i], row, x, y)
			}
		}
	}
}

// TestHashJoinMatchesOracleRandomized is the join property test: every key
// type, random side filters, pools of 1, 2 and 8 workers. Half the seeds join
// two random sides, which repeat their keys and so mostly fan out; the other
// half join a dimension over the left side's keys, one key sometimes dropped
// or repeated, which the right side's filter may leave out again.
func TestHashJoinMatchesOracleRandomized(t *testing.T) {
	pools := []*Pool{NewPool(1), NewPool(2), NewPool(8)}
	for _, p := range pools {
		defer p.Close()
	}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keyType := []ColumnType{Categorical, Int64, Bool}[rng.Intn(3)]
		leftRows, rightRows := 1+rng.Intn(300), 1+rng.Intn(40)
		left := randomKeyedTable(rng, leftRows, keyType, "l")
		right := randomKeyedTable(rng, rightRows, keyType, "r")
		if seed%2 == 1 {
			right = dimensionTable(rng, left, rng.Intn(2) == 0, rng.Intn(2) == 0)
		}
		lv, rv := sideView(t, rng, left, "l"), sideView(t, rng, right, "r")
		for _, p := range pools {
			left.SetPool(p)
			right.SetPool(p)
			requireJoinMatchesOracle(t, fmt.Sprintf("seed %d pool %d (%v key, %dx%d)",
				seed, p.workers, keyType, leftRows, rightRows), lv, rv)
		}
	}
}

// TestHashJoinMatchesOracleAtScale crosses the morsel boundary: a 200k-row
// left side, filtered, against a small dimension that lacks one of its keys,
// sequential and parallel.
func TestHashJoinMatchesOracleAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("200k-row join in -short mode")
	}
	rng := rand.New(rand.NewSource(7))
	left := randomKeyedTable(rng, 200000, Categorical, "l")
	right := dimensionTable(rng, left, true, false)
	lv := sideView(t, rng, left, "l")
	rv, err := NewView(right, FullSelection(right.NumRows()))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		p := NewPool(workers)
		left.SetPool(p)
		if got := requireJoinMatchesOracle(t, fmt.Sprintf("%d workers", workers), lv, rv); got != "gathered" {
			t.Fatalf("%d workers: the join was %s, want gathered", workers, got)
		}
		p.Close()
	}
}

// TestHashJoinSharesOnlyTheDimensionShape: a full left view joined to a
// unique-key dimension that covers every left value outputs the left table
// itself, so the result holds the left table's own columns, on every key type
// and pool, however few left rows there are. A filtered left view or an
// unmatched left value gathers instead, and a key a left row holds twice on
// the right refuses the join; a repeated right key no left row holds does
// not. Every case agrees with the oracle.
func TestHashJoinSharesOnlyTheDimensionShape(t *testing.T) {
	pools := []*Pool{NewPool(1), NewPool(2), NewPool(8)}
	for _, p := range pools {
		defer p.Close()
	}
	for ki, keyType := range []ColumnType{Categorical, Int64, Bool} {
		rng := rand.New(rand.NewSource(int64(2800 + ki)))
		left := randomKeyedTable(rng, 3*morselRows+11, keyType, "l")
		single := randomKeyedTable(rng, 1, keyType, "l")
		dim := dimensionTable(rng, left, false, false)
		view := func(tab *Table, sel *Selection) View {
			if sel == nil {
				sel = FullSelection(tab.NumRows())
			}
			v, err := NewView(tab, sel)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		tagged, err := left.Where(NewIn("l_tag", "x", "z"))
		if err != nil {
			t.Fatal(err)
		}
		type shapeCase struct {
			name        string
			left, right View
			want        string
		}
		unmatchedLeft, unmatchedDim := absentKeyDimension(rng, left, false)
		dupLeft, dupDim := absentKeyDimension(rng, left, true)
		cases := []shapeCase{
			{"dimension", view(left, nil), view(dim, nil), "shared"},
			{"filtered left", view(left, tagged), view(dim, nil), "gathered"},
			{"unmatched left value", view(left, nil), view(dimensionTable(rng, left, true, false), nil), "gathered"},
			{"duplicated right key", view(left, nil), view(dimensionTable(rng, left, false, true), nil), "refused"},
			{"one left row", view(single, nil), view(dim, nil), "shared"},
			{"empty result", view(left, nil), view(dim, newSelection(dim.NumRows())), "gathered"},
			{"gathered left, absent value unmatched", view(unmatchedLeft, nil), view(unmatchedDim, nil), "shared"},
			{"gathered left, absent value duplicated", view(dupLeft, nil), view(dupDim, nil), "shared"},
		}
		if keyType == Categorical {
			wideLeft := withWideKey(rng, randomKeyedTable(rng, 700, keyType, "l"), 300)
			if key, _ := wideLeft.Column("key"); key.width != 2 {
				t.Fatalf("a 300-value key is stored in %d-byte codes", key.width)
			}
			cases = append(cases, shapeCase{"u16 key", view(wideLeft, nil), view(dimensionTable(rng, wideLeft, false, false), nil), "shared"})
		}
		for _, tc := range cases {
			for _, p := range pools {
				tc.left.table.SetPool(p)
				tc.right.table.SetPool(p)
				label := fmt.Sprintf("%v key, %s, %d workers", keyType, tc.name, p.workers)
				if got := requireJoinMatchesOracle(t, label, tc.left, tc.right); got != tc.want {
					t.Fatalf("%s: the join was %s, want %s", label, got, tc.want)
				}
			}
		}
	}
}

// TestJoinErrors covers the contract violations both join paths must reject
// identically: unjoinable and mismatched key types, unknown key columns, and
// output column collisions under an empty prefix.
func TestJoinErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	catL := randomKeyedTable(rng, 10, Categorical, "l")
	catR := randomKeyedTable(rng, 10, Categorical, "r")
	intR := randomKeyedTable(rng, 10, Int64, "r")
	full := func(tab *Table) View {
		v, err := NewView(tab, FullSelection(tab.NumRows()))
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	cases := []struct {
		name           string
		left, right    View
		lk, rk, prefix string
		wantKeyTypeErr bool
	}{
		{"mismatched key types", full(catL), full(intR), "key", "key", "r_", true},
		{"float key", full(catL), full(catR), "l_payload", "r_payload", "r_", true},
		{"unknown left key", full(catL), full(catR), "nope", "key", "r_", false},
		{"unknown right key", full(catL), full(catR), "key", "nope", "r_", false},
		{"column collision on empty prefix", full(catL), full(catL), "key", "key", "", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, hashErr := HashJoin(tc.left, tc.right, tc.lk, tc.rk, tc.prefix)
			_, oracleErr := JoinOracle(tc.left, tc.right, tc.lk, tc.rk, tc.prefix)
			if hashErr == nil || oracleErr == nil {
				t.Fatalf("want errors from both paths, got hash=%v oracle=%v", hashErr, oracleErr)
			}
			if tc.wantKeyTypeErr && !errors.Is(hashErr, ErrJoinKeyType) {
				t.Errorf("hash error %v, want ErrJoinKeyType", hashErr)
			}
		})
	}
}

// FuzzJoinOracle is the CI fuzz smoke target: arbitrary shapes and seeds must
// never make the hash join diverge from the nested-loop oracle (or crash),
// refuse where the oracle joins or join where it refuses, nor share columns
// where it must gather. An even shape joins two random sides, which mostly
// fan out; an odd one joins the full left side to a unique-key dimension over
// its key values (the shared path), which shape bit 1 breaks by dropping one
// key, bit 2 by duplicating one (a refusal) and bit 3 by filtering the left
// side. Bit 4 gathers the left side without the rows of one key value, which
// the dimension then lacks or (bit 2) holds twice; the join still shares. Bit
// 5 gives a categorical left side a key of up to 300 values, two-byte codes
// past 256 rows, and bit 6 filters the dimension, which may leave out a
// duplicated key's copy or a key's only row.
func FuzzJoinOracle(f *testing.F) {
	f.Add(int64(1), uint16(10), uint16(5), uint8(0), uint8(0))
	f.Add(int64(2), uint16(1), uint16(1), uint8(1), uint8(0))
	f.Add(int64(3), uint16(130), uint16(64), uint8(2), uint8(0))
	f.Add(int64(4), uint16(0), uint16(40), uint8(0), uint8(0))
	f.Add(int64(5), uint16(300), uint16(0), uint8(0), uint8(1))
	f.Add(int64(6), uint16(70), uint16(0), uint8(1), uint8(1))
	f.Add(int64(7), uint16(0), uint16(0), uint8(2), uint8(1))
	f.Add(int64(8), uint16(200), uint16(0), uint8(0), uint8(3))
	f.Add(int64(9), uint16(200), uint16(0), uint8(1), uint8(5))
	f.Add(int64(10), uint16(200), uint16(0), uint8(2), uint8(9))
	f.Add(int64(11), uint16(300), uint16(0), uint8(0), uint8(17))
	f.Add(int64(12), uint16(300), uint16(0), uint8(1), uint8(21))
	f.Add(int64(13), uint16(399), uint16(0), uint8(2), uint8(17))
	f.Add(int64(14), uint16(350), uint16(0), uint8(0), uint8(33))
	f.Add(int64(15), uint16(350), uint16(0), uint8(0), uint8(53))
	f.Add(int64(16), uint16(120), uint16(0), uint8(1), uint8(5))
	f.Add(int64(17), uint16(250), uint16(0), uint8(0), uint8(21))
	f.Add(int64(18), uint16(250), uint16(0), uint8(1), uint8(69))
	f.Add(int64(19), uint16(300), uint16(0), uint8(0), uint8(67))
	f.Fuzz(func(t *testing.T, seed int64, leftRows, rightRows uint16, keyKind, shape uint8) {
		lr := 1 + int(leftRows)%400
		rr := 1 + int(rightRows)%400
		keyType := []ColumnType{Categorical, Int64, Bool}[int(keyKind)%3]
		rng := rand.New(rand.NewSource(seed))
		left := randomKeyedTable(rng, lr, keyType, "l")
		var lv, rv View
		if shape&1 == 0 {
			right := randomKeyedTable(rng, rr, keyType, "r")
			lv, rv = sideView(t, rng, left, "l"), sideView(t, rng, right, "r")
		} else {
			if shape&32 != 0 && keyType == Categorical {
				left = withWideKey(rng, left, 300)
			}
			var dim *Table
			if shape&16 != 0 {
				left, dim = absentKeyDimension(rng, left, shape&4 != 0)
			} else {
				dim = dimensionTable(rng, left, shape&2 != 0, shape&4 != 0)
			}
			lv, _ = left.View(nil)
			if shape&8 != 0 {
				lv = sideView(t, rng, left, "l")
			}
			rv, _ = dim.View(nil)
			if shape&64 != 0 {
				rv = sideView(t, rng, dim, "r")
			}
		}
		requireJoinMatchesOracle(t, fmt.Sprintf("seed %d %v %dx%d shape %d", seed, keyType, lr, rr, shape), lv, rv)
	})
}
