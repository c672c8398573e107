package dataset

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// This file is the differential test bed for the hash equi-join: for
// randomized table pairs over every joinable key type, filtered on both
// sides, on sequential and parallel pools, HashJoin must produce a table
// column-for-column identical to the nested-loop JoinOracle — including the
// canonical (left, right)-ascending row order, whichever side builds — and
// share the left table's columns exactly when the output is that table.

// JoinOracle is the nested-loop differential reference: every (left, right)
// row pair is compared through the row-at-a-time value accessors, with no
// hashing, no dictionary-code translation, no parallelism and no sharing.
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
				lidx = append(lidx, int32(lrow))
				ridx = append(ridx, int32(rrow))
			}
		})
	})
	if cmpErr != nil {
		return nil, cmpErr
	}
	return materializeJoin(left.table, right.table, lidx, ridx, false, rightPrefix)
}

// joinKeyEqual compares one key pair through the generic value accessors.
func joinKeyEqual(lc *Column, lrow int, rc *Column, rrow int) (bool, error) {
	switch lc.Type {
	case Categorical:
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
		return lc.ints[lrow] == rc.ints[rrow], nil
	case Bool:
		return lc.bools[lrow] == rc.bools[rrow], nil
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

// dimensionTable builds a unique-key right side for left: one row per
// distinct value of left's key column, in random order, so every left row
// matches exactly one of its rows. drop leaves the first of those keys out,
// dup repeats it.
func dimensionTable(rng *rand.Rand, left *Table, drop, dup bool) *Table {
	key, _ := left.Column("key")
	var rows []int32
	seen := map[string]bool{}
	for row := 0; row < left.NumRows(); row++ {
		var v string
		if key.Type == Int64 {
			v = fmt.Sprint(key.ints[row])
		} else {
			v, _ = key.StringAt(row)
		}
		if !seen[v] {
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
	for i := range rows {
		payload[i] = float64(rng.Intn(1000))
		tags[i] = []string{"x", "y", "z"}[rng.Intn(3)]
	}
	tab, err := NewTable(gather(key, rows, "key"), NewFloatColumn("r_payload", payload), NewCategoricalColumn("r_tag", tags))
	if err != nil {
		panic(err)
	}
	return tab
}

// sharesProbeSide reports whether joining lv to rv on "key" outputs lv's
// table itself: the left side probes, selects every row of a non-empty table,
// and every row matches exactly one selected right row.
func sharesProbeSide(lv, rv View) bool {
	lc, rc, err := joinKeyColumns(lv, rv, "key", "key")
	if err != nil || !lv.full() || lv.sel.n == 0 || rv.sel.Count() > lv.sel.Count() {
		return false
	}
	for lrow := 0; lrow < lv.sel.n; lrow++ {
		matches := 0
		rv.sel.ForEach(func(rrow int) {
			if eq, _ := joinKeyEqual(lc, lrow, rc, rrow); eq {
				matches++
			}
		})
		if matches != 1 {
			return false
		}
	}
	return true
}

// requireJoinMatchesOracle joins lv to rv on "key" and requires HashJoin to
// equal JoinOracle cell for cell and to hold the left table's own columns
// exactly when its output is that table (sharesProbeSide), every one of them
// or none. It returns whether the columns were shared.
func requireJoinMatchesOracle(t *testing.T, label string, lv, rv View) (shared bool) {
	t.Helper()
	want, err := JoinOracle(lv, rv, "key", "key", "r_")
	if err != nil {
		t.Fatalf("%s: oracle: %v", label, err)
	}
	got, err := HashJoin(lv, rv, "key", "key", "r_")
	if err != nil {
		t.Fatalf("%s: hash join: %v", label, err)
	}
	requireTablesEqual(t, label, got, want)
	shared = got.columns[0] == lv.table.columns[0]
	for i, c := range lv.table.columns {
		if (got.columns[i] == c) != shared {
			t.Fatalf("%s: left column %s shared = %v, column %s shared = %v", label, c.Name, !shared, lv.table.columns[0].Name, shared)
		}
	}
	if wantShared := sharesProbeSide(lv, rv); shared != wantShared {
		t.Fatalf("%s: left columns shared = %v, want %v", label, shared, wantShared)
	}
	return shared
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
			switch ac.Type {
			case Float64:
				if ac.floats[row] != bc.floats[row] {
					t.Fatalf("%s: column %q row %d: %v vs %v", label, an[i], row, ac.floats[row], bc.floats[row])
				}
			case Int64:
				if ac.ints[row] != bc.ints[row] {
					t.Fatalf("%s: column %q row %d: %v vs %v", label, an[i], row, ac.ints[row], bc.ints[row])
				}
			case Bool:
				if ac.bools[row] != bc.bools[row] {
					t.Fatalf("%s: column %q row %d: %v vs %v", label, an[i], row, ac.bools[row], bc.bools[row])
				}
			case Categorical:
				if ac.dict[ac.codes[row]] != bc.dict[bc.codes[row]] {
					t.Fatalf("%s: column %q row %d: %q vs %q", label, an[i], row,
						ac.dict[ac.codes[row]], bc.dict[bc.codes[row]])
				}
			}
		}
	}
}

// TestHashJoinMatchesOracleRandomized is the join property test: random table
// pairs (sizes chosen so both build directions occur), every key type, random
// side filters, pools of 1, 2 and 8 workers.
func TestHashJoinMatchesOracleRandomized(t *testing.T) {
	pools := []*Pool{NewPool(1), NewPool(2), NewPool(8)}
	for _, p := range pools {
		defer p.Close()
	}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keyType := []ColumnType{Categorical, Int64, Bool}[rng.Intn(3)]
		leftRows, rightRows := 1+rng.Intn(300), 1+rng.Intn(40)
		if rng.Intn(2) == 0 {
			leftRows, rightRows = rightRows, leftRows // flip which side builds
		}
		left := randomKeyedTable(rng, leftRows, keyType, "l")
		right := randomKeyedTable(rng, rightRows, keyType, "r")
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
// probe side against a small dimension, sequential and parallel.
func TestHashJoinMatchesOracleAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("200k-row join in -short mode")
	}
	rng := rand.New(rand.NewSource(7))
	left := randomKeyedTable(rng, 200000, Categorical, "l")
	right := randomKeyedTable(rng, 12, Categorical, "r")
	lv := sideView(t, rng, left, "l")
	rv, err := NewView(right, FullSelection(right.NumRows()))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		p := NewPool(workers)
		left.SetPool(p)
		requireJoinMatchesOracle(t, fmt.Sprintf("%d workers", workers), lv, rv)
		p.Close()
	}
}

// TestHashJoinSharesOnlyTheDimensionShape: a full left view joined to a
// unique-key dimension that covers every left value outputs the left table
// itself, so the result holds the left table's own columns, on every key type
// and pool. Each condition that breaks the shape gathers instead. Every case
// equals the oracle cell for cell.
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
		cases := []struct {
			name        string
			left, right View
			shared      bool
		}{
			{"dimension", view(left, nil), view(dim, nil), true},
			{"filtered left", view(left, tagged), view(dim, nil), false},
			{"unmatched left value", view(left, nil), view(dimensionTable(rng, left, true, false), nil), false},
			{"duplicated build key", view(left, nil), view(dimensionTable(rng, left, false, true), nil), false},
			{"build left", view(single, nil), view(dim, nil), false},
			{"empty result", view(left, nil), view(dim, EmptySelection(dim.NumRows())), false},
		}
		for _, tc := range cases {
			for _, p := range pools {
				tc.left.table.SetPool(p)
				tc.right.table.SetPool(p)
				label := fmt.Sprintf("%v key, %s, %d workers", keyType, tc.name, p.workers)
				if shared := requireJoinMatchesOracle(t, label, tc.left, tc.right); shared != tc.shared {
					t.Fatalf("%s: left columns shared = %v, want %v", label, shared, tc.shared)
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
// nor share columns where it must gather. An even shape joins two random
// sides; an odd one joins the full left side to a unique-key dimension over
// its key values (the shared path), which shape bit 1 breaks by dropping one
// key, bit 2 by duplicating one and bit 3 by filtering the left side.
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
			lv, _ = left.View(nil)
			if shape&8 != 0 {
				lv = sideView(t, rng, left, "l")
			}
			rv, _ = dimensionTable(rng, left, shape&2 != 0, shape&4 != 0).View(nil)
		}
		requireJoinMatchesOracle(t, fmt.Sprintf("seed %d %v %dx%d shape %d", seed, keyType, lr, rr, shape), lv, rv)
	})
}
