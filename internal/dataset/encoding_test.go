package dataset

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"aware/internal/colstore"
	"aware/internal/stats"
)

// This file tests the stored byte codes of low-cardinality numeric columns
// (colstore's encoding rule, decoded by wrapColumn in table.go) and the run
// kernels that scan them and every byte-coded categorical column (byteRuns
// in kernels.go). The contract: a table answers exactly as it would stored
// wide. Where stays word-identical to the row-at-a-time reference and to the
// wide path; BinCounts, CrossCounts and the bin edge labels equal both the
// wide path over the same values and a row-at-a-time recomputation; the
// decoded rows are the constructed ones bit for bit; a NaN or a 257th
// distinct bit pattern keeps a column wide; a derived table answers the
// same; and no error changes.

var (
	negZero  = math.Copysign(0, -1)
	denormal = math.SmallestNonzeroFloat64
	// edgeFloats come first in every float value pool, edgeInts in every int
	// pool: both zeros (two bit patterns, one comparison value), denormals,
	// and int64 values no float64 tells apart (2^53 and 2^53+1 compare equal
	// once converted).
	edgeFloats     = []float64{0, negZero, denormal, -denormal, 1, -1, 0.5, 17, 90}
	wildFloats     = []float64{math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64}
	edgeInts       = []int64{0, 1, -1, 1 << 53, 1<<53 + 1, 1<<53 - 1, -(1 << 53), -(1<<53 + 1), -(1<<53 - 1)}
	wildInts       = []int64{math.MinInt64, math.MaxInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
	encodingCards  = []int{1, 2, 127, 128, 129, 255, 256, 257}
	encodingBounds = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, negZero, denormal, -denormal}
)

// distinctValues draws card values with pairwise distinct bit patterns — what
// the encoding rule counts — the edge values first, then whole and
// fractional numbers.
func distinctValues[T float64 | int64](rng *rand.Rand, card int, edges []T, draw func() T, bits func(T) uint64) []T {
	seen := make(map[uint64]bool, card)
	var out []T
	for i := 0; len(out) < card; i++ {
		var v T
		if i < len(edges) {
			v = edges[i]
		} else {
			v = draw()
		}
		if !seen[bits(v)] {
			seen[bits(v)] = true
			out = append(out, v)
		}
	}
	return out
}

// encodingTable builds a table whose float column "f" and int column "i" hold
// exactly card distinct bit patterns each (every one of them occurring, the
// two zeros first appearing in either order), next to a categorical and a
// bool column to cross them with. wild adds the infinities and the extremes
// of both types; nan plants one NaN in "f", which must keep that column — and
// only it — wide. It also returns the rows the numeric columns were built
// from.
func encodingTable(rng *rand.Rand, rows, card int, wild, nan bool) (*Table, []float64, []int64) {
	fe, ie := edgeFloats, edgeInts
	if wild {
		fe = append(append([]float64(nil), wildFloats...), fe...)
		ie = append(append([]int64(nil), wildInts...), ie...)
	}
	fpool := distinctValues(rng, card, fe, func() float64 { return float64(rng.Intn(4000)-2000) / 4 }, math.Float64bits)
	ipool := distinctValues(rng, card, ie, func() int64 { return int64(rng.Intn(4000) - 2000) }, func(v int64) uint64 { return uint64(v) })
	if z := slices.Index(fpool, 0); z >= 0 && z+1 < len(fpool) && rng.Intn(2) == 0 {
		fpool[z], fpool[z+1] = fpool[z+1], fpool[z] // -0 first
	}
	floats := make([]float64, rows)
	ints := make([]int64, rows)
	cats := make([]string, rows)
	flags := make([]bool, rows)
	for r := 0; r < rows; r++ {
		k := rng.Intn(card)
		if r < card {
			k = r // every value occurs, in pool order
		}
		floats[r], ints[r] = fpool[k], ipool[(k*7+3)%card]
		cats[r] = fmt.Sprintf("c%d", rng.Intn(5))
		flags[r] = rng.Intn(3) == 0
	}
	if nan && rows > 0 {
		floats[rng.Intn(rows)] = math.NaN()
	}
	tab, err := NewTable(NewFloatColumn("f", floats), NewIntColumn("i", ints),
		NewCategoricalColumn("cat", cats), NewBoolColumn("flag", flags))
	if err != nil {
		panic(err)
	}
	return tab, floats, ints
}

// wideTwin returns a table over the same values whose numeric columns are
// stored wide, whatever they hold: the 8-byte kernels and the per-row bin
// assignment over the very same rows. Every column is wrapped afresh, so the
// twin's memos are its own.
func wideTwin(tab *Table) *Table {
	cols := make([]*Column, len(tab.columns))
	for i, c := range tab.columns {
		switch c.Type {
		case Float64:
			cols[i] = wrapColumn(&colstore.Column{Name: c.Name, Kind: colstore.Float64, Floats: c.floatValues()})
		case Int64:
			ints := make([]int64, c.Len())
			for r := range ints {
				ints[r] = c.intAt(r)
			}
			cols[i] = wrapColumn(&colstore.Column{Name: c.Name, Kind: colstore.Int64, Ints: ints})
		default:
			cols[i] = wrapColumn(c.phys)
		}
	}
	twin, err := NewTable(cols...)
	if err != nil {
		panic(err)
	}
	twin.pool.Store(tab.pool.Load())
	return twin
}

// memoEntries counts the entries a table's column memos hold: code tallies
// and binnings.
func memoEntries(tab *Table) (codes, bins int) {
	for _, c := range tab.columns {
		c.ref.mu.RLock()
		if c.ref.codes != nil {
			codes++
		}
		bins += len(c.ref.bins)
		c.ref.mu.RUnlock()
	}
	return codes, bins
}

// columnFloats reads a numeric column through the row-at-a-time accessor.
func columnFloats(t *testing.T, tab *Table, column string) []float64 {
	t.Helper()
	c, err := tab.Column(column)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]float64, tab.NumRows())
	for i := range all {
		if all[i], err = floatCell(c, i); err != nil {
			t.Fatal(err)
		}
	}
	return all
}

// legacyBinEdgeLabels is binEdgeLabels as it was before the labels moved into
// the memoized binning: a histogram over the whole column, for its edges.
func legacyBinEdgeLabels(t *testing.T, all []float64, bins int) []string {
	t.Helper()
	hist, err := stats.NewHistogram(all, bins)
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]string, bins)
	for b := range labels {
		labels[b] = fmt.Sprintf("[%s, %s)", trimFloat(hist.Edges[b]), trimFloat(hist.Edges[b+1]))
	}
	return labels
}

// requireStored asserts a column is stored as its rows call for — wide
// exactly when wantWide, otherwise byte codes into values ascending by
// comparison value — and that it reads back, row by row, the float64 rows it
// was built from bit for bit (or, for an int column, the int64 rows exactly).
func requireStored[T float64 | int64](t *testing.T, label string, tab *Table, column string, wantWide bool, rows []T) {
	t.Helper()
	c, _ := tab.Column(column)
	if wide := c.width == 0; wide != wantWide {
		t.Fatalf("%s: column %s stored wide = %v, want %v", label, column, wide, wantWide)
	}
	for k := 1; k < len(c.values); k++ {
		if !(c.values[k-1] <= c.values[k]) {
			t.Fatalf("%s: column %s values not ascending at %d: %v, %v", label, column, k, c.values[k-1], c.values[k])
		}
	}
	for row, want := range rows {
		same := false
		switch w := any(want).(type) {
		case float64:
			same = math.Float64bits(c.floatAt(row)) == math.Float64bits(w)
		case int64:
			same = c.intAt(row) == w
		}
		if !same {
			t.Fatalf("%s: column %s row %d reads differently from the %v it was built from", label, column, row, want)
		}
	}
}

// requireEndsMatchMinMax asserts the bin edges of a coded numeric column come
// from what stats.MinMax returns over its rows, signed zero included.
func requireEndsMatchMinMax(t *testing.T, label string, tab *Table, column string) {
	t.Helper()
	c, _ := tab.Column(column)
	all := columnFloats(t, tab, column)
	if c.width == 0 || len(all) == 0 {
		return
	}
	least, most, _ := stats.MinMax(all)
	ends := c.valueRange(c.codeTallies())
	if math.Float64bits(ends[0]) != math.Float64bits(least) || math.Float64bits(ends[1]) != math.Float64bits(most) {
		t.Fatalf("%s: column %s range %v, MinMax %v, %v", label, column, ends, least, most)
	}
}

// encodingPredicates is every Range and GreaterThan over the column with
// bounds on, just below, just above and between a sample of the values it
// holds, outside its range, and at NaN, the infinities and the zeros — every
// ordered pair, so low > high and low == high are among them.
func encodingPredicates(rng *rand.Rand, column string, values []float64) []Predicate {
	bounds := append([]float64(nil), encodingBounds...)
	for k := 0; k < 2 && len(values) > 0; k++ {
		v := values[rng.Intn(len(values))]
		if v != v {
			continue
		}
		w := values[rng.Intn(len(values))]
		bounds = append(bounds, v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)), v/2+w/2)
	}
	var preds []Predicate
	for _, a := range bounds {
		preds = append(preds, GreaterThan{Column: column, Threshold: a})
		for _, b := range bounds {
			preds = append(preds, Range{Column: column, Low: a, High: b})
		}
	}
	if len(values) > 4096 { // a large table: a random fifth of the battery
		rng.Shuffle(len(preds), func(a, b int) { preds[a], preds[b] = preds[b], preds[a] })
		preds = preds[:len(preds)/5]
	}
	return preds
}

// requireEncodingExact holds one table to the whole contract, numeric column
// by numeric column, against the row-at-a-time reference and the wide twin.
func requireEncodingExact(t *testing.T, rng *rand.Rand, label string, tab *Table) {
	t.Helper()
	twin := wideTwin(tab)
	split, err := tab.View(Equals{Column: "flag", Value: "true"})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	full, _ := tab.View(nil)
	for _, column := range []string{"f", "i"} {
		all := columnFloats(t, tab, column)
		for _, pred := range encodingPredicates(rng, column, all) {
			ctx := fmt.Sprintf("%s: %s", label, pred.Describe())
			got, err := tab.Where(pred)
			if err != nil {
				t.Fatalf("%s: Where: %v", ctx, err)
			}
			want, err := referenceSelection(tab, pred)
			if err != nil {
				t.Fatalf("%s: reference: %v", ctx, err)
			}
			requireSameWords(t, ctx, got, want)
			wide, err := twin.Where(pred)
			if err != nil {
				t.Fatalf("%s: wide Where: %v", ctx, err)
			}
			requireSameWords(t, ctx+" (wide twin)", got, wide)
		}
		hasNaN := false
		for _, v := range all {
			hasNaN = hasNaN || v != v
		}
		if hasNaN || len(all) == 0 {
			continue // no histogram accepts a NaN or an empty column, on any path
		}
		requireEndsMatchMinMax(t, label, tab, column)
		for _, bins := range []int{1, 10, 300} {
			ctx := fmt.Sprintf("%s: column %s bins %d", label, column, bins)
			for name, v := range map[string]View{"full": full, "split": split} {
				got, err := v.BinCounts(column, bins)
				if err != nil {
					t.Fatalf("%s: %s BinCounts: %v", ctx, name, err)
				}
				wide, err := View{table: twin, sel: v.sel}.BinCounts(column, bins)
				if err != nil || !reflect.DeepEqual(got, wide) {
					t.Fatalf("%s: %s BinCounts = %v, wide path %v, %v", ctx, name, got, wide, err)
				}
				var vals []float64
				v.sel.ForEach(func(row int) { vals = append(vals, all[row]) })
				if want := legacyBinCounts(all, vals, bins); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %s BinCounts = %v, row at a time %v", ctx, name, got, want)
				}
			}
			// The numeric attribute on either axis of a cross-tab, against a
			// categorical one and against the other numeric column.
			other := map[string]string{"f": "i", "i": "f"}[column]
			for _, axes := range [][2]string{{column, "cat"}, {"flag", column}, {column, other}} {
				if bins > 10 && axes[1] == other {
					continue // 300 x 300 cells say nothing 10 x 10 do not
				}
				got, err := split.CrossCounts(axes[0], axes[1], bins)
				if err != nil {
					t.Fatalf("%s: CrossCounts %v: %v", ctx, axes, err)
				}
				wide, err := View{table: twin, sel: split.sel}.CrossCounts(axes[0], axes[1], bins)
				if err != nil || !reflect.DeepEqual(got, wide) {
					t.Fatalf("%s: CrossCounts %v differs from the wide path (%v)", ctx, axes, err)
				}
			}
			got, err := split.CrossCounts(column, "flag", bins)
			if err != nil {
				t.Fatalf("%s: CrossCounts: %v", ctx, err)
			}
			if want := legacyBinEdgeLabels(t, all, bins); !reflect.DeepEqual(got.RowLabels, want) {
				t.Fatalf("%s: edge labels = %q, want %q", ctx, got.RowLabels, want)
			}
			// With flag=true selected, the cross-tab's "true" column is the
			// filtered histogram and its "false" column is empty.
			var vals []float64
			split.sel.ForEach(func(row int) { vals = append(vals, all[row]) })
			want := legacyBinCounts(all, vals, bins)
			for b := range want {
				if got.Counts[b][1] != want[b] || got.Counts[b][0] != 0 {
					t.Fatalf("%s: cross-tab row %d = %v, row at a time [0 %d]", ctx, b, got.Counts[b], want[b])
				}
			}
		}
	}
}

// TestByteEncodingMatchesValues is the property test of the encoding: random
// columns at the cardinalities around 128 and 256, float and int, tame and
// with infinities and type extremes, with and without a NaN, in memory and
// reloaded through the mmap, heap and CSV-ingest stores, on pools of 1, 2
// and 8 workers.
func TestByteEncodingMatchesValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1701))
	pools := []*Pool{NewPool(1), NewPool(2), NewPool(8)}
	defer func() {
		for _, p := range pools {
			p.Close()
		}
	}()
	for ci, card := range encodingCards {
		for vi, variant := range []struct{ wild, nan bool }{{false, false}, {true, false}, {ci%2 == 0, true}} {
			rows := card + rng.Intn(3*card+70)
			if !testing.Short() && (card == 129 || card == 256) && vi == 0 {
				rows = morselRows + 1 + rng.Intn(2*morselRows) // several morsels, a ragged tail
			}
			mem, floats, ints := encodingTable(rng, rows, card, variant.wild, variant.nan)
			variants := snapshotVariants(t, mem)
			variants["memory"] = mem
			for store, tab := range variants {
				label := fmt.Sprintf("card=%d wild=%v nan=%v rows=%d store=%s", card, variant.wild, variant.nan, rows, store)
				requireStored(t, label, tab, "f", card > 256 || variant.nan, floats)
				requireStored(t, label, tab, "i", card > 256, ints)
				// Every pool on the in-memory table; the reloaded ones take turns.
				for k := range pools {
					p := pools[(ci+vi+k)%len(pools)]
					tab.SetPool(p)
					requireEncodingExact(t, rng, fmt.Sprintf("%s workers=%d", label, p.Workers()), tab)
					if store != "memory" {
						break
					}
				}
			}
		}
	}
}

// TestCodedBinEdgesMatchMinMax pins the detail that keeps bin edges
// bit-identical: of −0 and +0, both stored, the end of a coded column's range
// is the one whose first row comes first — what a MinMax scan returns — in a
// column and in rows gathered from it, whose shared dictionary then lists
// values no row holds. 2^53 and 2^53+1 are two entries of one value.
func TestCodedBinEdgesMatchMinMax(t *testing.T) {
	for _, col := range [][]float64{{3, negZero, 0, 1}, {3, 0, negZero, 1}, {negZero}, {0, negZero}, {-3, negZero, 0}, {-3, 0, negZero}} {
		tab, err := NewTable(NewFloatColumn("f", col))
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprint(col)
		requireStored(t, label, tab, "f", false, col)
		requireEndsMatchMinMax(t, label, tab, "f")
		for _, rows := range [][]int{{1, 2}, {2, 1}, {len(col) - 1}} {
			if slices.Max(rows) >= len(col) {
				continue
			}
			sub, err := tab.Select(rows)
			if err != nil {
				t.Fatal(err)
			}
			requireEndsMatchMinMax(t, fmt.Sprintf("%s rows %v", label, rows), sub, "f")
		}
	}
	tab, err := NewTable(NewIntColumn("i", []int64{1<<53 + 1, 1 << 53, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1}))
	if err != nil {
		t.Fatal(err)
	}
	c, _ := tab.Column("i")
	if want := []float64{math.MinInt64, 1 << 53, 1 << 53, math.MaxInt64, math.MaxInt64}; !reflect.DeepEqual(c.values, want) ||
		!reflect.DeepEqual(c.codes8, []uint8{2, 1, 4, 0, 3}) || !reflect.DeepEqual(c.distinct, []float64{math.MinInt64, 1 << 53, math.MaxInt64}) {
		t.Errorf("int64 edge column stored as %v / %v, distinct %v", c.values, c.codes8, c.distinct)
	}
	requireEndsMatchMinMax(t, "int64 edges", tab, "i")
}

// TestRangeBytesEveryTailShape runs the run kernels alone (fillRuns) against
// a per-row loop: every code range [lo, hi), 0 <= lo < hi <= 256, over a
// window that holds every code; then every window length from 0 to 200 rows
// — every split between the eight-rows-a-word main loop and the per-row
// tail — with random ranges and random code sets, sets that straddle code
// 128 and sets of three or more runs included; and the bool ranges.
func TestRangeBytesEveryTailShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1702))
	check := func(label string, codes []uint8, b byteRuns, set []uint64) {
		t.Helper()
		// Dirty destination words: the kernel must overwrite, not OR.
		dst := make([]uint64, (len(codes)+63)/64)
		for i := range dst {
			dst[i] = rng.Uint64()
		}
		count := fillRuns(dst, codes, b, set)
		want := make([]uint64, len(dst))
		wantCount := 0
		for i, c := range codes {
			if set[c>>6]>>(c&63)&1 != 0 {
				want[i/64] |= 1 << (i % 64)
				wantCount++
			}
		}
		if count != wantCount || !reflect.DeepEqual(dst, want) {
			t.Fatalf("%s, %d runs, n=%d: count %d words %x, want %d %x", label, b.n, len(codes), count, dst, wantCount, want)
		}
	}
	rangeSet := func(lo, hi int) []uint64 {
		set := make([]uint64, 4)
		for c := lo; c < hi; c++ {
			set[c>>6] |= 1 << (c & 63)
		}
		return set
	}
	every := make([]uint8, 2*256+37)
	for i := range every {
		every[i] = uint8(i)
	}
	rng.Shuffle(len(every), func(i, j int) { every[i], every[j] = every[j], every[i] })
	for lo := 0; lo < 256; lo++ {
		for hi := lo + 1; hi <= 256; hi++ {
			check(fmt.Sprintf("[%d,%d)", lo, hi), every, rangeRuns(lo, hi), rangeSet(lo, hi))
		}
	}
	for n := 0; n <= 200; n++ {
		for trial := 0; trial < 15; trial++ {
			codes := make([]uint8, n)
			lo := rng.Intn(256)
			hi := lo + 1 + rng.Intn(256-lo)
			switch trial {
			case 0:
				lo, hi = 0, 256
			case 1:
				lo, hi = 0, 1
			case 2:
				lo, hi = 1, 2
			case 3:
				lo, hi = 255, 256
			case 4:
				lo, hi = 128, 256
			case 5:
				lo, hi = 127, 129
			}
			for i := range codes {
				switch trial % 3 {
				case 0:
					codes[i] = uint8(rng.Intn(256))
				case 1:
					codes[i] = uint8(rng.Intn(2)) // a bool column
				default:
					codes[i] = uint8(lo - 2 + rng.Intn(hi-lo+4)) // around the bounds
				}
			}
			check(fmt.Sprintf("[%d,%d)", lo, hi), codes, rangeRuns(lo, hi), rangeSet(lo, hi))

			// A random code set over a dictionary of size entries, dense or
			// sparse, and on odd trials forced to straddle code 128.
			size := 1 + rng.Intn(256)
			set := make([]uint64, 4)
			density := rng.Intn(4)
			for c := 0; c < size; c++ {
				if rng.Intn(4) < density || (trial%2 == 1 && c >= 126 && c < 131) {
					set[c>>6] |= 1 << (c & 63)
				}
			}
			for i := range codes {
				codes[i] = uint8(rng.Intn(size))
			}
			if runs := setRuns(set, size); runs.n > 0 {
				check(fmt.Sprintf("set %x of %d", set, size), codes, runs, set)
			}
		}
	}
	// A bool column is its own byte codes.
	flags := []bool{true, false, false, true, true}
	dst := make([]uint64, 1)
	if n := fillRuns(dst, colstore.BoolsAsBytes(flags), rangeRuns(1, 2), nil); n != 3 || dst[0] != 0b11001 {
		t.Errorf("bool true run: count %d word %b", n, dst[0])
	}
	if n := fillRuns(dst, colstore.BoolsAsBytes(flags), rangeRuns(0, 1), nil); n != 2 || dst[0] != 0b00110 {
		t.Errorf("bool false run: count %d word %b", n, dst[0])
	}
}

// TestByteEncodingCarriedExactlyWhereShared derives tables from a coded
// parent every way the package can. A column a derived table shares is the
// parent's; every gathered column keeps its width and shares the parent's
// dictionary — a Select of a few rows lists values none of its rows hold,
// and must still answer from the rows it has — and the derived bucket column
// is coded by the same rule at construction. The derived column and both
// joins' right columns arrive with their exact code tallies.
func TestByteEncodingCarriedExactlyWhereShared(t *testing.T) {
	rng := rand.New(rand.NewSource(1703))
	parent, _, _ := encodingTable(rng, 5000, 90, false, false)
	requireEncodingExact(t, rng, "parent", parent)

	derived := deriveEveryWay(t, rng, parent, []string{"f", "flag"}, "i", "cat")
	all := parent.ColumnNames()
	requireMemoCarriedWhereShared(t, parent, derived, map[string][]string{
		"shuffle":     {"i", "cat"},
		"derive":      all,
		"shared join": all,
	}, map[string][]string{
		"derive":      {"i_bucket"},
		"join":        {"dim_cat", "dim_rank"},
		"shared join": {"dim_cat", "dim_rank"},
	}, func(name string, tab *Table) {
		requireEncodingExact(t, rng, name, tab)
		for _, column := range []string{"f", "i"} {
			c, _ := tab.Column(column)
			pc, _ := parent.Column(column)
			if c.width != 1 || &c.phys.Values[0] != &pc.phys.Values[0] {
				t.Errorf("%s: column %s is not coded over its parent's values", name, column)
			}
		}
	})
	if c, _ := derived["derive"].Column("i_bucket"); c.width != 1 {
		t.Errorf("the derived bucket column is stored wide")
	}
	requireEncodingExact(t, rng, "parent after deriving", parent)
}

// TestByteEncodingConcurrentFirstUse races 16 goroutines onto the first use
// of one table's code tallies and binnings, by filters and by binnings at
// once (run under -race in CI): each must read what a sequential reader of
// an untouched copy reads, and one memo entry per statistic is kept.
func TestByteEncodingConcurrentFirstUse(t *testing.T) {
	build := func() *Table {
		tab, _, _ := encodingTable(rand.New(rand.NewSource(1704)), 3*morselRows+17, 74, false, false)
		return tab
	}
	preds := []Predicate{
		Range{Column: "f", Low: -100, High: 55.5},
		GreaterThan{Column: "i", Threshold: 12},
		And{Terms: []Predicate{Range{Column: "i", Low: -500, High: 500}, Equals{Column: "flag", Value: "false"}}},
	}
	calm := build()
	var wantSel []*Selection
	for _, p := range preds {
		sel, err := referenceSelection(calm, p)
		if err != nil {
			t.Fatal(err)
		}
		wantSel = append(wantSel, sel)
	}
	calmSplit := View{table: calm, sel: wantSel[0]}
	wantBins, _ := calmSplit.BinCounts("i", 10)
	wantCross, _ := calmSplit.CrossCounts("f", "cat", 10)

	tab := build()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for k := range preds {
				i := (g + k) % len(preds)
				sel, err := tab.Where(preds[i])
				if err != nil || sel.count != wantSel[i].count || !reflect.DeepEqual(sel.words, wantSel[i].words) {
					t.Errorf("goroutine %d: predicate %d diverges from the calm table (%v)", g, i, err)
				}
			}
			split := View{table: tab, sel: wantSel[0]}
			if got, err := split.BinCounts("i", 10); err != nil || !reflect.DeepEqual(got, wantBins) {
				t.Errorf("goroutine %d: BinCounts = %v, %v", g, got, err)
			}
			if got, err := split.CrossCounts("f", "cat", 10); err != nil || !reflect.DeepEqual(got, wantCross) {
				t.Errorf("goroutine %d: CrossCounts = %v, %v", g, got, err)
			}
		}(g)
	}
	close(start)
	wg.Wait()
	// Racing first users may each scan, but one copy per entry is kept: the
	// code tallies of f and i, which their binnings count from, and the two
	// binnings — which read the column's own codes.
	if codes, bins := memoEntries(tab); codes != 2 || bins != 2 {
		t.Errorf("memo holds %d code tallies and %d binnings, want 2 and 2", codes, bins)
	}
	for _, c := range tab.columns {
		for bins, ba := range c.ref.bins {
			if codes, _ := ba.codes.([]uint8); len(codes) == 0 || &codes[0] != &c.codes8[0] {
				t.Errorf("binning of %s into %d bins does not read the codes of its column", c.Name, bins)
			}
		}
	}
}

// TestByteEncodingKeepsTypeErrors: the coded path sits behind the column and
// type resolution, so a numeric predicate on a bool or categorical column
// and a categorical one on a coded numeric column fail exactly as they did —
// the same ErrTypeMismatch text as the row-at-a-time reference — and a
// failed predicate memoizes nothing.
func TestByteEncodingKeepsTypeErrors(t *testing.T) {
	tab, _, _ := encodingTable(rand.New(rand.NewSource(1705)), 300, 40, false, false)
	if c, _ := tab.Column("i"); c.width != 1 {
		t.Fatal("column i is not coded")
	}
	for _, tc := range []struct {
		pred Predicate
		want string
	}{
		{Range{Column: "flag", Low: 0, High: 1}, "dataset: column type mismatch: flag is bool, not numeric"},
		{Range{Column: "cat", Low: 0, High: 1}, "dataset: column type mismatch: cat is categorical, not numeric"},
		{GreaterThan{Column: "flag", Threshold: 0}, "dataset: column type mismatch: flag is bool, not numeric"},
		{GreaterThan{Column: "cat", Threshold: 0}, "dataset: column type mismatch: cat is categorical, not numeric"},
		{Equals{Column: "i", Value: "1"}, "dataset: column type mismatch: i is int64, not categorical"},
		{Equals{Column: "f", Value: "1"}, "dataset: column type mismatch: f is float64, not categorical"},
		{NewIn("i", "1", "2"), "dataset: column type mismatch: i is int64, not categorical"},
		{Range{Column: "absent", Low: 0, High: 1}, `dataset: column not found: "absent"`},
	} {
		_, err := tab.Where(tc.pred)
		_, refErr := referenceSelection(tab, tc.pred)
		if err == nil || refErr == nil || err.Error() != tc.want || refErr.Error() != tc.want {
			t.Errorf("%s: Where error %q, reference error %q, want %q", tc.pred.Describe(), err, refErr, tc.want)
		}
		if tc.pred.Describe() != (Range{Column: "absent", Low: 0, High: 1}).Describe() && !errors.Is(err, ErrTypeMismatch) {
			t.Errorf("%s: error %v is not ErrTypeMismatch", tc.pred.Describe(), err)
		}
	}
	view, _ := tab.View(nil)
	if _, err := view.BinCounts("flag", 10); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("BinCounts on a bool column: %v", err)
	}
	if _, computed := tab.RefStats(); computed != 0 {
		t.Errorf("failed predicates filled the memo: %d scans", computed)
	}
}

// fuzzFloat and fuzzInt map one fuzz byte to a column value: the edge values
// first (NaN is byte 0 of the float pool), then quarter steps or whole
// numbers, so a column drawn from bytes holds few distinct values and the
// specials among them often.
func fuzzFloat(b byte) float64 {
	specials := append(append([]float64{math.NaN()}, wildFloats...), edgeFloats...)
	if int(b) < len(specials) {
		return specials[b]
	}
	return float64(b)/4 - 20
}

func fuzzInt(b byte) int64 {
	specials := append(append([]int64(nil), wildInts...), edgeInts...)
	if int(b) < len(specials) {
		return specials[b]
	}
	return int64(b) - 100
}

// fuzzColumn draws the column "x" from fuzz bytes, one value per byte; a
// float column's values are first divided by divisor.
func fuzzColumn(data []byte, asInts bool, divisor float64) *Column {
	if asInts {
		ints := make([]int64, len(data))
		for i, b := range data {
			ints[i] = fuzzInt(b)
		}
		return NewIntColumn("x", ints)
	}
	floats := make([]float64, len(data))
	for i, b := range data {
		floats[i] = fuzzFloat(b) / divisor
	}
	return NewFloatColumn("x", floats)
}

// FuzzRangeCodes is the CI fuzz smoke target of the encoding: a float or int
// column drawn from the fuzz bytes, a Range and a GreaterThan with arbitrary
// bounds. Where must select the rows the row-at-a-time reference selects,
// word for word.
func FuzzRangeCodes(f *testing.F) {
	// The property test's edge cases: empty and one-row columns, a tail, a
	// full word and a word plus tail, NaN (float byte 0) present and absent,
	// both zeros (float bytes 5 and 6), the int64 extremes and 2^53±1 (int
	// bytes 0 to 12), bounds on values, NaN and infinite bounds, low > high.
	f.Add([]byte{}, 0.0, 1.0, 0.0, false)
	f.Add([]byte{5}, negZero, denormal, negZero, false)
	f.Add([]byte{5, 6, 7, 8, 9, 10, 11, 12, 13}, -1.0, 17.0, 0.5, true)
	f.Add([]byte{0, 5, 6, 40, 41}, 0.0, 90.0, -1.0, false)
	f.Add([]byte{1, 2, 3, 4, 60, 200, 255}, math.Inf(-1), math.Inf(1), math.MaxFloat64, false)
	f.Add([]byte{0, 1, 2, 3, 7, 8, 9, 10, 11, 12, 200}, -float64(1<<53), float64(1<<53), float64(1<<53), true)
	f.Add([]byte{100, 101, 102, 103}, math.NaN(), 5.5, math.NaN(), false)
	f.Add([]byte{100, 101, 102, 103}, 5.0, math.NaN(), 5.25, true)
	f.Add([]byte{90, 80, 70, 60, 50, 40, 30}, 10.0, -10.0, 0.0, false)
	long := make([]byte, 64+8+3)
	for i := range long {
		long[i] = byte(20 + i%37)
	}
	f.Add(long, -15.0, -11.75, -12.0, false)
	f.Add(long[:64], -15.0, -11.75, -12.0, true)
	f.Fuzz(func(t *testing.T, data []byte, low, high, threshold float64, asInts bool) {
		tab, err := NewTable(fuzzColumn(data, asInts, 1))
		if err != nil {
			t.Fatal(err)
		}
		for _, pred := range []Predicate{
			Range{Column: "x", Low: low, High: high},
			GreaterThan{Column: "x", Threshold: threshold},
		} {
			got, err := tab.Where(pred)
			if err != nil {
				t.Fatalf("%s: Where: %v", pred.Describe(), err)
			}
			want, err := referenceSelection(tab, pred)
			if err != nil {
				t.Fatalf("%s: reference: %v", pred.Describe(), err)
			}
			requireSameWords(t, pred.Describe(), got, want)
		}
	})
}

// FuzzCodeSet is the CI fuzz smoke target of the byte-coded Equals and In: a
// categorical column over a dictionary of 1 to 256 values (size+1, every
// value present, then one row per data byte), and a subset of values, one
// per subset byte, some of them absent from the dictionary. Equals on each
// subset value and In on the whole subset must select the rows the
// row-at-a-time reference selects, word for word.
func FuzzCodeSet(f *testing.F) {
	// One value, the bool-sized dictionary, both sides of code 128 on a
	// 129- and a 256-entry dictionary, adjacent codes merging into one run,
	// three runs and more, absent values, an empty subset, a full word of
	// rows plus a tail.
	f.Add([]byte{}, uint8(0), []byte{0})
	f.Add([]byte{1, 0, 1, 1}, uint8(1), []byte{1})
	f.Add([]byte{127, 128, 0, 5}, uint8(128), []byte{127, 128})
	f.Add([]byte{126, 127, 128, 129, 255}, uint8(255), []byte{126, 127, 128, 129})
	f.Add([]byte{3, 4, 5, 6, 7, 8, 9}, uint8(20), []byte{4, 5, 6})
	f.Add([]byte{3, 4, 5, 6, 7, 8, 9}, uint8(20), []byte{3, 5, 7, 9})
	f.Add([]byte{1, 2, 3}, uint8(9), []byte{200, 250, 2})
	f.Add([]byte{1, 2, 3}, uint8(9), []byte{})
	long := make([]byte, 64+8+3)
	for i := range long {
		long[i] = byte(i * 7)
	}
	f.Add(long, uint8(200), []byte{0, 1, 2, 60, 130, 131, 199})
	f.Fuzz(func(t *testing.T, data []byte, size uint8, subset []byte) {
		name := func(b byte) string { return fmt.Sprintf("v%03d", b) }
		values := make([]string, 0, int(size)+1+len(data))
		for i := int(size); i >= 0; i-- {
			values = append(values, name(byte(i)))
		}
		for _, b := range data {
			values = append(values, name(byte(int(b)%(int(size)+1))))
		}
		tab, err := NewTable(NewCategoricalColumn("x", values))
		if err != nil {
			t.Fatal(err)
		}
		in := In{Column: "x"}
		preds := []Predicate{}
		for _, b := range subset {
			in.Values = append(in.Values, name(b))
			preds = append(preds, Equals{Column: "x", Value: name(b)})
		}
		for _, pred := range append(preds, in) {
			got, err := tab.Where(pred)
			if err != nil {
				t.Fatalf("%s: Where: %v", pred.Describe(), err)
			}
			want, err := referenceSelection(tab, pred)
			if err != nil {
				t.Fatalf("%s: reference: %v", pred.Describe(), err)
			}
			requireSameWords(t, pred.Describe(), got, want)
		}
	})
}

var benchSinkCol *Column

// BenchmarkEncodeColumn times the encoding decided at construction at 300k
// rows, single threaded, for the kinds of column it meets: whole numbers
// (census age), arbitrary repeated values, and a continuous column, which
// must give up at its 257th distinct value and stay wide.
func BenchmarkEncodeColumn(b *testing.B) {
	const n = 300_000
	rng := rand.New(rand.NewSource(71))
	whole := make([]float64, n)
	wholeInts := make([]int64, n)
	arbitrary := make([]float64, n)
	continuous := make([]float64, n)
	pool := make([]float64, 200)
	for i := range pool {
		pool[i] = rng.NormFloat64() * 1e3
	}
	for i := 0; i < n; i++ {
		whole[i] = float64(17 + rng.Intn(74))
		wholeInts[i] = int64(whole[i])
		arbitrary[i] = pool[rng.Intn(len(pool))]
		continuous[i] = rng.NormFloat64()
	}
	for _, k := range []struct {
		name  string
		build func() *Column
		coded bool
	}{
		{"whole_floats", func() *Column { return NewFloatColumn("x", whole) }, true},
		{"whole_ints", func() *Column { return NewIntColumn("x", wholeInts) }, true},
		{"arbitrary", func() *Column { return NewFloatColumn("x", arbitrary) }, true},
		{"continuous_bails", func() *Column { return NewFloatColumn("x", continuous) }, false},
	} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSinkCol = k.build()
			}
			if coded := benchSinkCol.width != 0; coded != k.coded {
				b.Fatalf("coded = %v, want %v", coded, k.coded)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
		})
	}
}
