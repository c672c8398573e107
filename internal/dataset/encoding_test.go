package dataset

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"aware/internal/colstore"
	"aware/internal/stats"
)

// This file tests the order-preserving byte dictionaries of low-cardinality
// numeric columns (byteCodes in table.go) and the one kernel that scans them
// (fillRangeBytes in kernels.go). The contract: a table answers exactly as it
// would without the encoding. Where stays word-identical to WhereGeneric and
// row-identical to Matches; BinCounts, CrossCounts and the bin edge labels
// equal both the wide path over the same values and a row-at-a-time
// recomputation; a NaN or a 257th distinct value keeps a column wide; the
// encoding belongs to one column, is shared by every table that shares the
// column, fills safely under concurrent first use, and changes no error.

var (
	negZero  = math.Copysign(0, -1)
	denormal = math.SmallestNonzeroFloat64
	// edgeFloats come first in every float value pool, edgeInts in every int
	// pool: both zeros (one comparison value), denormals, and int64 values
	// no float64 tells apart (2^53 and 2^53+1 compare equal once converted).
	edgeFloats     = []float64{0, negZero, denormal, -denormal, 1, -1, 0.5, 17, 90}
	wildFloats     = []float64{math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64}
	edgeInts       = []int64{0, 1, -1, 1 << 53, 1<<53 + 1, 1<<53 - 1, -(1 << 53), -(1<<53 + 1), -(1<<53 - 1)}
	wildInts       = []int64{math.MinInt64, math.MaxInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
	encodingCards  = []int{1, 2, 127, 128, 129, 255, 256, 257}
	encodingBounds = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, negZero, denormal, -denormal}
)

// distinctValues draws card values that are pairwise distinct under float64
// comparison, the edge values first, then whole and fractional numbers.
func distinctValues[T float64 | int64](rng *rand.Rand, card int, edges []T, draw func() T) []T {
	seen := make(map[float64]bool, card)
	var out []T
	for i := 0; len(out) < card; i++ {
		var v T
		if i < len(edges) {
			v = edges[i]
		} else {
			v = draw()
		}
		if f := float64(v); !seen[f] { // -0 and +0 hash alike: one key
			seen[f] = true
			out = append(out, v)
		}
	}
	return out
}

// encodingTable builds a table whose float column "f" and int column "i" hold
// exactly card distinct comparison values each (every one of them occurring),
// next to a categorical and a bool column to cross them with. wild adds the
// infinities and the extremes of both types; nan plants one NaN in "f", which
// must keep that column — and only it — wide.
func encodingTable(rng *rand.Rand, rows, card int, wild, nan bool) *Table {
	fe, ie := edgeFloats, edgeInts
	if wild {
		fe = append(append([]float64(nil), wildFloats...), fe...)
		ie = append(append([]int64(nil), wildInts...), ie...)
	}
	fpool := distinctValues(rng, card, fe, func() float64 { return float64(rng.Intn(4000)-2000) / 4 })
	ipool := distinctValues(rng, card, ie, func() int64 { return int64(rng.Intn(4000) - 2000) })
	floats := make([]float64, rows)
	ints := make([]int64, rows)
	cats := make([]string, rows)
	flags := make([]bool, rows)
	for r := 0; r < rows; r++ {
		k := rng.Intn(card)
		if r < card {
			k = r // every value occurs
		}
		floats[r], ints[r] = fpool[k], ipool[(k*7+3)%card]
		if floats[r] == 0 && rng.Intn(2) == 0 {
			floats[r] = -floats[r] // both zeros occur, in either order
		}
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
	return tab
}

// wideTwin returns a table over the same column vectors whose numeric
// columns are memoized as wide before anyone asks: the 8-byte kernels and the
// per-row bin assignment over the very same values. The columns are wrapped
// afresh, so the twin's memos are its own and forcing them wide leaves the
// original's alone.
func wideTwin(tab *Table) *Table {
	cols := make([]*Column, len(tab.columns))
	for i, c := range tab.columns {
		cols[i] = wrapColumn(c.phys)
		if c.Type == Float64 || c.Type == Int64 {
			cols[i].ref.bytes = &byteCodes{}
		}
	}
	twin, err := NewTable(cols...)
	if err != nil {
		panic(err)
	}
	twin.pool.Store(tab.pool.Load())
	return twin
}

// memoEntries counts the entries a table's column memos hold: encodings,
// code tallies and binnings.
func memoEntries(tab *Table) (bytes, codes, bins int) {
	for _, c := range tab.columns {
		c.ref.mu.RLock()
		if c.ref.bytes != nil {
			bytes++
		}
		if c.ref.codes != nil {
			codes++
		}
		bins += len(c.ref.bins)
		c.ref.mu.RUnlock()
	}
	return bytes, codes, bins
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
		if all[i], err = c.Float(i); err != nil {
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

// requireEncoded asserts the memoized encoding of a column is what its values
// call for: wide exactly when wantWide, otherwise a strictly ascending
// dictionary whose codes decode, row by row, to a value equal to the row's.
func requireEncoded(t *testing.T, label string, tab *Table, column string, wantWide bool) {
	t.Helper()
	c, _ := tab.Column(column)
	enc := c.byteCodes()
	if wantWide {
		if enc.dict != nil || enc.codes != nil {
			t.Fatalf("%s: column %s is encoded with %d values, want wide", label, column, len(enc.dict))
		}
		return
	}
	if enc.dict == nil {
		t.Fatalf("%s: column %s stayed wide", label, column)
	}
	for k := 1; k < len(enc.dict); k++ {
		if !(enc.dict[k-1] < enc.dict[k]) {
			t.Fatalf("%s: column %s dictionary not strictly ascending at %d: %v, %v", label, column, k, enc.dict[k-1], enc.dict[k])
		}
	}
	for row, v := range columnFloats(t, tab, column) {
		if got := enc.dict[enc.codes[row]]; got != v {
			t.Fatalf("%s: column %s row %d holds %v, its code decodes to %v", label, column, row, v, got)
		}
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
// by numeric column, against the generic kernels, the wide twin and (when
// rowwise is set) the row-at-a-time reference.
func requireEncodingExact(t *testing.T, rng *rand.Rand, label string, tab *Table, rowwise bool) {
	t.Helper()
	twin := wideTwin(tab)
	split, err := tab.View(Equals{Column: "flag", Value: "true"})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	full, _ := tab.View(nil)
	for _, column := range []string{"f", "i"} {
		all := columnFloats(t, tab, column)
		for pi, pred := range encodingPredicates(rng, column, all) {
			ctx := fmt.Sprintf("%s: %s", label, pred.Describe())
			tuned, err := tab.Where(pred)
			if err != nil {
				t.Fatalf("%s: Where: %v", ctx, err)
			}
			generic, err := tab.WhereGeneric(pred)
			if err != nil {
				t.Fatalf("%s: WhereGeneric: %v", ctx, err)
			}
			requireSameWords(t, ctx, tuned, generic)
			wide, err := twin.Where(pred)
			if err != nil {
				t.Fatalf("%s: wide Where: %v", ctx, err)
			}
			requireSameWords(t, ctx+" (wide twin)", tuned, wide)
			if rowwise && pi%7 == 0 {
				want, err := referenceIndices(tab, pred)
				if err != nil {
					t.Fatalf("%s: reference: %v", ctx, err)
				}
				if got := tuned.Indices(); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
					t.Fatalf("%s: indices diverge from the Matches reference", ctx)
				}
			}
		}
		hasNaN := false
		for _, v := range all {
			hasNaN = hasNaN || v != v
		}
		if hasNaN || len(all) == 0 {
			continue // no histogram accepts a NaN or an empty column, on any path
		}
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
			mem := encodingTable(rng, rows, card, variant.wild, variant.nan)
			variants := snapshotVariants(t, mem)
			variants["memory"] = mem
			for store, tab := range variants {
				label := fmt.Sprintf("card=%d wild=%v nan=%v rows=%d store=%s", card, variant.wild, variant.nan, rows, store)
				requireEncoded(t, label, tab, "f", card > 256 || variant.nan)
				requireEncoded(t, label, tab, "i", card > 256)
				// Every pool on the in-memory table; the reloaded ones take turns.
				for k := range pools {
					p := pools[(ci+vi+k)%len(pools)]
					tab.SetPool(p)
					requireEncodingExact(t, rng, fmt.Sprintf("%s workers=%d", label, p.Workers()), tab, k == 0)
					if store != "memory" {
						break
					}
				}
				// Everything above read one encoding per numeric column.
				if n, _, _ := memoEntries(tab); n != 2 {
					t.Errorf("%s: memo holds %d encodings, want 2", label, n)
				}
				wantCols := 0
				for _, column := range []string{"f", "i"} {
					if c, _ := tab.Column(column); c.byteCodes().dict != nil {
						wantCols++
					}
				}
				if cols, size := tab.EncodedColumns(); cols != wantCols || size != wantCols*rows {
					t.Errorf("%s: EncodedColumns = %d columns, %d bytes; want %d, %d", label, cols, size, wantCols, wantCols*rows)
				}
			}
		}
	}
}

// TestEncodeBytesKeepsFirstAppearance pins the detail that keeps bin edges
// bit-identical: a dictionary entry is the value's first appearance in the
// column, so an all-zero minimum carries the sign a MinMax scan would return.
func TestEncodeBytesKeepsFirstAppearance(t *testing.T) {
	for _, col := range [][]float64{{3, negZero, 0, 1}, {3, 0, negZero, 1}, {negZero}, {0, negZero}} {
		enc := encodeBytes(col)
		least, most, _ := stats.MinMax(col)
		if enc.dict == nil || math.Float64bits(enc.dict[0]) != math.Float64bits(least) ||
			math.Float64bits(enc.dict[len(enc.dict)-1]) != math.Float64bits(most) {
			t.Errorf("encodeBytes(%v).dict = %v, want ends bit-identical to MinMax's %v, %v", col, enc.dict, least, most)
		}
	}
	if enc := encodeBytes([]float64(nil)); enc.dict != nil {
		t.Errorf("an empty column encoded as %v, want wide", enc.dict)
	}
	// 2^53 and 2^53+1 are one comparison value; the int64 extremes are two.
	enc := encodeBytes([]int64{1<<53 + 1, 1 << 53, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1})
	if want := []float64{math.MinInt64, 1 << 53, math.MaxInt64}; !reflect.DeepEqual(enc.dict, want) ||
		!reflect.DeepEqual(enc.codes, []uint8{1, 1, 2, 0, 2}) {
		t.Errorf("int64 edge column encoded as %v / %v", enc.dict, enc.codes)
	}
}

// TestRangeBytesEveryTailShape runs the byte kernel alone over every window
// length from 0 to 200 rows — every split between the eight-rows-a-word main
// loop and the per-row tail — and every kind of code range, a width of 256
// and the bool ranges included, against a per-row loop.
func TestRangeBytesEveryTailShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1702))
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
			// Dirty destination words: the kernel must overwrite, not OR.
			dst := make([]uint64, (n+63)/64)
			for i := range dst {
				dst[i] = rng.Uint64()
			}
			count := fillRangeBytes(dst, codes, lo, hi)
			want := make([]uint64, len(dst))
			wantCount := 0
			for i, c := range codes {
				if int(c) >= lo && int(c) < hi {
					want[i/64] |= 1 << (i % 64)
					wantCount++
				}
			}
			if count != wantCount || !reflect.DeepEqual(dst, want) {
				t.Fatalf("n=%d [%d,%d): count %d words %x, want %d %x", n, lo, hi, count, dst, wantCount, want)
			}
		}
	}
	// A bool column is its own byte codes.
	flags := []bool{true, false, false, true, true}
	dst := make([]uint64, 1)
	if n := fillRangeBytes(dst, colstore.BoolsAsBytes(flags), 1, 2); n != 3 || dst[0] != 0b11001 {
		t.Errorf("bool true range: count %d word %b", n, dst[0])
	}
	if n := fillRangeBytes(dst, colstore.BoolsAsBytes(flags), 0, 1); n != 2 || dst[0] != 0b00110 {
		t.Errorf("bool false range: count %d word %b", n, dst[0])
	}
}

// TestByteEncodingCarriedExactlyWhereShared encodes a parent table and then
// derives tables from it every way the package can. A column a derived table
// shares keeps its encoding and is never re-encoded; every gathered column
// builds its own: a Select of a few rows has a shorter dictionary than its
// parent, and a carried-over one would select wrong rows.
func TestByteEncodingCarriedExactlyWhereShared(t *testing.T) {
	rng := rand.New(rand.NewSource(1703))
	parent := encodingTable(rng, 5000, 90, false, false)
	requireEncodingExact(t, rng, "parent", parent, true)
	if cols, _ := parent.EncodedColumns(); cols != 2 {
		t.Fatalf("parent encoded %d columns, want 2", cols)
	}

	derived := deriveEveryWay(t, rng, parent, []string{"f", "flag"}, "i", "cat")
	all := parent.ColumnNames()
	requireMemoCarriedWhereShared(t, parent, derived, map[string][]string{
		"shuffle":     {"i", "cat"},
		"derive":      all,
		"shared join": all,
	}, func(name string, tab *Table) {
		requireEncodingExact(t, rng, name, tab, true)
		if cols, size := tab.EncodedColumns(); cols != 2 || size != 2*tab.NumRows() {
			t.Errorf("%s: after use %d encoded columns holding %d bytes, want 2 and %d", name, cols, size, 2*tab.NumRows())
		}
	})
	fc, _ := derived["select"].Column("f")
	pc, _ := parent.Column("f")
	if few, all := len(fc.byteCodes().dict), len(pc.byteCodes().dict); few > 6 || all != 90 {
		t.Errorf("select's dictionary holds %d values, its parent's %d; want at most 6 and 90", few, all)
	}
	requireEncodingExact(t, rng, "parent after deriving", parent, false)
}

// TestByteEncodingConcurrentFirstUse races 16 goroutines onto the first use
// of one table's encodings, by filters and by binnings at once (run under
// -race in CI): each must read what a sequential reader of an untouched copy
// reads, and one encoding per column is kept.
func TestByteEncodingConcurrentFirstUse(t *testing.T) {
	build := func() *Table {
		return encodingTable(rand.New(rand.NewSource(1704)), 3*morselRows+17, 74, false, false)
	}
	preds := []Predicate{
		Range{Column: "f", Low: -100, High: 55.5},
		GreaterThan{Column: "i", Threshold: 12},
		And{Terms: []Predicate{Range{Column: "i", Low: -500, High: 500}, Equals{Column: "flag", Value: "false"}}},
	}
	calm := build()
	var wantSel []*Selection
	for _, p := range preds {
		sel, err := calm.WhereGeneric(p)
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
	// Racing first users may each build, but one copy per entry is kept, and
	// the binnings alias the kept code vectors, not a loser's.
	if n, _, _ := memoEntries(tab); n != 2 {
		t.Errorf("memo holds %d encodings, want 2 (f, i)", n)
	}
	for _, c := range tab.columns {
		for bins, ba := range c.ref.bins {
			if kept := c.ref.bytes; len(ba.codes) == 0 || &ba.codes[0] != &kept.codes[0] {
				t.Errorf("binning of %s into %d bins does not read the memoized codes of its column", c.Name, bins)
			}
		}
	}
	if cols, size := tab.EncodedColumns(); cols != 2 || size != 2*tab.NumRows() {
		t.Errorf("EncodedColumns = %d, %d; want 2, %d", cols, size, 2*tab.NumRows())
	}
}

// TestByteEncodingKeepsTypeErrors: the encoded path sits behind the column
// and type resolution, so a numeric predicate on a bool or categorical column
// and a categorical one on an encoded numeric column fail exactly as they
// did — the same ErrTypeMismatch text as the generic kernels — and a failed
// predicate memoizes nothing.
func TestByteEncodingKeepsTypeErrors(t *testing.T) {
	tab := encodingTable(rand.New(rand.NewSource(1705)), 300, 40, false, false)
	warm, err := tab.Where(Range{Column: "i", Low: 0, High: 9}) // "i" is encoded from here on
	if err != nil || warm.Count() == 0 {
		t.Fatalf("warm-up filter: %v", err)
	}
	_, computedBefore := tab.RefStats()
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
		_, tunedErr := tab.Where(tc.pred)
		_, genericErr := tab.WhereGeneric(tc.pred)
		if tunedErr == nil || genericErr == nil || tunedErr.Error() != tc.want || genericErr.Error() != tc.want {
			t.Errorf("%s: tuned error %q, generic error %q, want %q", tc.pred.Describe(), tunedErr, genericErr, tc.want)
		}
		if tc.pred.Describe() != (Range{Column: "absent", Low: 0, High: 1}).Describe() && !errors.Is(tunedErr, ErrTypeMismatch) {
			t.Errorf("%s: error %v is not ErrTypeMismatch", tc.pred.Describe(), tunedErr)
		}
	}
	view, _ := tab.View(nil)
	if _, err := view.BinCounts("flag", 10); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("BinCounts on a bool column: %v", err)
	}
	if _, computed := tab.RefStats(); computed != computedBefore {
		t.Errorf("failed predicates filled the memo: %d scans (was %d)", computed, computedBefore)
	}
	if encodings, _, _ := memoEntries(tab); encodings != 1 {
		t.Errorf("failed predicates filled the memo: %d encodings, want 1", encodings)
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

// fuzzColumn draws the column "x" from fuzz bytes, one value per byte.
func fuzzColumn(data []byte, asInts bool) *Column {
	if asInts {
		ints := make([]int64, len(data))
		for i, b := range data {
			ints[i] = fuzzInt(b)
		}
		return NewIntColumn("x", ints)
	}
	floats := make([]float64, len(data))
	for i, b := range data {
		floats[i] = fuzzFloat(b)
	}
	return NewFloatColumn("x", floats)
}

// FuzzRangeCodes is the CI fuzz smoke target of the encoding: a float or int
// column drawn from the fuzz bytes, a Range and a GreaterThan with arbitrary
// bounds. Where, WhereGeneric and Matches must
// select the same rows, word for word where words exist.
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
		tab, err := NewTable(fuzzColumn(data, asInts))
		if err != nil {
			t.Fatal(err)
		}
		for _, pred := range []Predicate{
			Range{Column: "x", Low: low, High: high},
			GreaterThan{Column: "x", Threshold: threshold},
		} {
			tuned, err := tab.Where(pred)
			if err != nil {
				t.Fatalf("%s: Where: %v", pred.Describe(), err)
			}
			generic, err := tab.WhereGeneric(pred)
			if err != nil {
				t.Fatalf("%s: WhereGeneric: %v", pred.Describe(), err)
			}
			requireSameWords(t, pred.Describe(), tuned, generic)
			want, err := referenceIndices(tab, pred)
			if err != nil {
				t.Fatalf("%s: reference: %v", pred.Describe(), err)
			}
			if got := tuned.Indices(); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
				t.Fatalf("%s: rows %v, Matches selects %v", pred.Describe(), got, want)
			}
			pop := 0
			for _, w := range tuned.words {
				pop += bits.OnesCount64(w)
			}
			if pop != len(want) {
				t.Fatalf("%s: %d bits set, Matches selects %d rows", pred.Describe(), pop, len(want))
			}
		}
	})
}

var benchSinkEnc *byteCodes

// BenchmarkEncodeColumn times the dictionary build at 300k rows, single
// threaded, for the kinds of column it meets: whole numbers (census age),
// arbitrary repeated values, and a continuous column, which must give up at
// its 257th distinct value.
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
		name    string
		build   func() *byteCodes
		encoded bool
	}{
		{"whole_floats", func() *byteCodes { return encodeBytes(whole) }, true},
		{"whole_ints", func() *byteCodes { return encodeBytes(wholeInts) }, true},
		{"arbitrary", func() *byteCodes { return encodeBytes(arbitrary) }, true},
		{"continuous_bails", func() *byteCodes { return encodeBytes(continuous) }, false},
	} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSinkEnc = k.build()
			}
			if (benchSinkEnc.dict != nil) != k.encoded {
				b.Fatalf("encoded = %v, want %v", benchSinkEnc.dict != nil, k.encoded)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
		})
	}
}
