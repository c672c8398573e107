package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"aware/internal/stats"
)

// This file tests the aggregation under the numeric hypothesis tests
// (View.Tally, View.Moments in selection.go). The contract is one identity:
// whatever the column holds, however it is stored and on whatever pool,
// View.Moments equals stats.MomentsOf of the gathered rows bit for bit, and
// the tests computed from counts equal the tests computed from the gathered
// slices — the benchmark's kernel twin rebuilds every compare_means step the
// second way and fails the run on a single differing bit.

// selectRows builds the selection of the rows keep accepts.
func selectRows(tab *Table, keep func(row int) bool) *Selection {
	return tab.fillSelection(func(sel *Selection, lo, hi int) int {
		n := 0
		for row := lo; row < hi; row++ {
			if keep(row) {
				sel.setBit(row)
				n++
			}
		}
		return n
	})
}

// momentsSelections is the battery of row sets one column is tested under:
// empty, one row, every row holding one value (zero variance), full, dense
// and sparse random draws, the finite rows only (an infinity present in the
// column and absent from the selection) and a sparse draw plus every infinite
// row (selected).
func momentsSelections(rng *rand.Rand, tab *Table, all []float64) map[string]*Selection {
	n := len(all)
	one, pivot := rng.Intn(n), all[rng.Intn(n)]
	dense, sparse := make([]bool, n), make([]bool, n)
	for row := range dense {
		dense[row], sparse[row] = rng.Intn(2) == 0, rng.Intn(10) == 0
	}
	return map[string]*Selection{
		"empty":     selectRows(tab, func(int) bool { return false }),
		"one row":   selectRows(tab, func(row int) bool { return row == one }),
		"one value": selectRows(tab, func(row int) bool { return all[row] == pivot }),
		"full":      selectRows(tab, func(int) bool { return true }),
		"dense":     selectRows(tab, func(row int) bool { return dense[row] }),
		"sparse":    selectRows(tab, func(row int) bool { return sparse[row] }),
		"finite":    selectRows(tab, func(row int) bool { return !math.IsInf(all[row], 0) && dense[row] }),
		"infinite":  selectRows(tab, func(row int) bool { return math.IsInf(all[row], 0) || sparse[row] }),
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameMoments(a, b stats.Moments) bool {
	return a.N == b.N && sameBits(a.Mean, b.Mean) && sameBits(a.M2, b.M2)
}

// requireSameTest fails unless two routes to one test agree: the same error
// text, or the same bits in every field of the result.
func requireSameTest(t *testing.T, ctx string, got stats.TestResult, gotErr error, want stats.TestResult, wantErr error) {
	t.Helper()
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: errors %v and %v", ctx, gotErr, wantErr)
		}
		return
	}
	if !sameBits(got.PValue, want.PValue) || !sameBits(got.Statistic, want.Statistic) ||
		!sameBits(got.DF, want.DF) || !sameBits(got.EffectSize, want.EffectSize) || got.N != want.N {
		t.Fatalf("%s: from counts %+v, from slices %+v", ctx, got, want)
	}
}

// requireConstant holds a selection of at least two rows, all of one value, to
// what a constant sample must reduce to on the column route and on the slice
// route alike — the value itself for a mean, a variance of exactly zero — and
// the Welch test over two such selections to its zero-variance error: never a
// p-value computed from the rounding residue of c·v/c.
func requireConstant(t *testing.T, ctx string, got stats.Moments, xs []float64) {
	t.Helper()
	want := stats.Moments{N: len(xs), Mean: xs[0] + 0}
	if slice := stats.MomentsOf(xs); !sameMoments(got, want) || !sameMoments(slice, want) {
		t.Fatalf("%s: constant selection reduced to %+v (column), %+v (slice), want %+v", ctx, got, slice, want)
	}
	_, colErr := stats.WelchFromMoments(got, got, stats.TwoSided)
	_, sliceErr := stats.WelchTTest(xs, xs, stats.TwoSided)
	for route, err := range map[string]error{"column": colErr, "slice": sliceErr} {
		if err == nil || !strings.Contains(err.Error(), "zero-variance") {
			t.Fatalf("%s: Welch over two constant samples, %s route: error %v, want the zero-variance one", ctx, route, err)
		}
	}
}

// requireMomentsExact holds one table to the identity, numeric column by
// numeric column, over every selection of the battery and every ordered pair
// of them as the two samples of a test.
func requireMomentsExact(t *testing.T, rng *rand.Rand, label string, tab *Table) {
	t.Helper()
	twin := wideTwin(tab)
	for _, column := range []string{"f", "i"} {
		all := columnFloats(t, tab, column)
		sels := momentsSelections(rng, tab, all)
		tallies := make(map[string]Tally, len(sels))
		floats := make(map[string][]float64, len(sels))
		for name, sel := range sels {
			ctx := fmt.Sprintf("%s: column %s, %s", label, column, name)
			v := View{table: tab, sel: sel}
			xs, err := v.Floats(column)
			if err != nil {
				t.Fatalf("%s: Floats: %v", ctx, err)
			}
			tally, err := v.Tally(column, nil)
			if err != nil {
				t.Fatalf("%s: Tally: %v", ctx, err)
			}
			got, err := v.Moments(column, nil)
			if err != nil {
				t.Fatalf("%s: Moments: %v", ctx, err)
			}
			if want := stats.MomentsOf(xs); !sameMoments(got, want) || !sameMoments(tally.Moments(), want) {
				t.Fatalf("%s: Moments = %+v, MomentsOf(Floats) = %+v", ctx, got, want)
			}
			if wide, err := (View{table: twin, sel: sel}).Moments(column, nil); err != nil || !sameMoments(got, wide) {
				t.Fatalf("%s: Moments = %+v, wide twin %+v (%v)", ctx, got, wide, err)
			}
			if name == "one value" && len(xs) >= 2 {
				requireConstant(t, ctx, got, xs)
			}
			// A histogram route's answer cannot depend on row order.
			if tally.Values != nil {
				shuffled := append([]float64(nil), xs...)
				rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
				if perm := stats.MomentsOf(shuffled); !sameMoments(got, perm) {
					t.Fatalf("%s: Moments = %+v, MomentsOf(shuffled rows) = %+v", ctx, got, perm)
				}
			}
			tallies[name], floats[name] = tally, xs
		}
		for a, ta := range tallies {
			for b, tb := range tallies {
				ctx := fmt.Sprintf("%s: column %s, %s vs %s", label, column, a, b)
				for _, alt := range []stats.Alternative{stats.TwoSided, stats.Greater, stats.Less} {
					got, gotErr := stats.WelchFromMoments(ta.Moments(), tb.Moments(), alt)
					want, wantErr := stats.WelchTTest(floats[a], floats[b], alt)
					requireSameTest(t, ctx+" Welch "+alt.String(), got, gotErr, want, wantErr)
				}
				got, gotErr := ta.KS(tb) // a wide column's is the slice form itself
				want, wantErr := stats.KolmogorovSmirnov(floats[a], floats[b])
				requireSameTest(t, ctx+" KS", got, gotErr, want, wantErr)
			}
		}
	}
}

// TestViewMomentsMatchGatheredRows is the property test of the identity:
// random float and int columns of 1, 2, 255, 256, 257 and a wide 1,000
// distinct bit patterns — both zeros as two stored values, first appearing in
// either order, denormals, int64 at ±2^53±1 where two stored values are one
// comparison value, with and without the infinities and type extremes, with
// and without a NaN — in memory and reloaded through the mmap, heap and
// CSV-ingest stores, on pools of 1, 2 and 8 workers, some tables spanning
// several morsels.
func TestViewMomentsMatchGatheredRows(t *testing.T) {
	rng := rand.New(rand.NewSource(2301))
	pools := []*Pool{NewPool(1), NewPool(2), NewPool(8)}
	defer func() {
		for _, p := range pools {
			p.Close()
		}
	}()
	for ci, card := range []int{1, 2, 255, 256, 257, 1000} {
		for vi, variant := range []struct{ wild, nan bool }{{false, false}, {true, false}, {ci%2 == 0, true}} {
			rows := card + rng.Intn(3*card+70)
			if !testing.Short() && (card == 256 || card == 1000) && vi == 1 {
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
					requireMomentsExact(t, rng, fmt.Sprintf("%s workers=%d", label, p.Workers()), tab)
					if store != "memory" {
						break
					}
				}
			}
		}
	}
}

// TestConstantSelectionsOfFractionsAreZeroVariance runs the identity over
// values no binary fraction holds — tenths and thirds, where c·v/c need not
// round back to v — and holds every selection of one such value, on the
// encoded column, its wide twin and every store, to requireConstant; two
// different constants must fail the Welch test the same way.
func TestConstantSelectionsOfFractionsAreZeroVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(2302))
	const rows = 900
	fraction := func(k int) float64 {
		if k%2 == 0 {
			return float64(k) / 10
		}
		return float64(k) / 3
	}
	floats, ints := make([]float64, rows), make([]int64, rows)
	for r := range floats {
		floats[r], ints[r] = fraction(rng.Intn(40)), int64(rng.Intn(7))
	}
	mem, err := NewTable(NewFloatColumn("f", floats), NewIntColumn("i", ints))
	if err != nil {
		t.Fatal(err)
	}
	variants := snapshotVariants(t, mem)
	variants["memory"], variants["wide twin"] = mem, wideTwin(mem)
	for store, tab := range variants {
		requireStored(t, store, tab, "f", store == "wide twin", floats)
		requireMomentsExact(t, rng, "fractions, store="+store, tab)
		var constants []stats.Moments
		for k := 0; k < 40; k++ {
			v := View{table: tab, sel: selectRows(tab, func(row int) bool { return floats[row] == fraction(k) })}
			xs, _ := v.Floats("f")
			got, err := v.Moments("f", nil)
			if err != nil || len(xs) < 2 {
				t.Fatalf("store=%s, rows equal to %v: %d rows (%v)", store, fraction(k), len(xs), err)
			}
			requireConstant(t, fmt.Sprintf("store=%s, rows equal to %v", store, fraction(k)), got, xs)
			constants = append(constants, got)
		}
		for _, a := range constants {
			if _, err := stats.WelchFromMoments(a, constants[0], stats.TwoSided); err == nil || !strings.Contains(err.Error(), "zero-variance") {
				t.Fatalf("store=%s: constants %v and %v: error %v", store, a.Mean, constants[0].Mean, err)
			}
		}
	}
}

// TestTallyKeepsTypeErrors: the aggregation resolves its column as every
// numeric read does, and a failed one memoizes nothing.
func TestTallyKeepsTypeErrors(t *testing.T) {
	tab, _, _ := encodingTable(rand.New(rand.NewSource(5)), 100, 10, false, false)
	v, _ := tab.View(nil)
	for _, column := range []string{"cat", "flag", "missing"} {
		_, want := v.Floats(column)
		if _, err := v.Moments(column, nil); err == nil || err.Error() != want.Error() {
			t.Errorf("Moments(%s): %v, Floats says %v", column, err, want)
		}
	}
	if codes, bins := memoEntries(tab); codes+bins != 0 {
		t.Errorf("failed reads memoized %d entries", codes+bins)
	}
}

// FuzzMomentsOf is the CI fuzz smoke target of the identity: a float or int
// column drawn from the fuzz bytes (few distinct values, the specials among
// them often), a selection drawn from a second byte string. The column route
// must equal the slice route, and the slice route must not see row order
// unless the sample holds a NaN. tenths divides a float column by ten, so
// that its values are no longer binary fractions and a constant selection's
// c·v/c need not round back to v; a selection of one value must reduce to
// exactly that value and no variance.
func FuzzMomentsOf(f *testing.F) {
	// The property test's edge cases: empty and one-row selections, one value
	// (zero variance), both zeros (float bytes 5 and 6), an infinity selected
	// and not (float bytes 1 and 2), a NaN (float byte 0), denormals, the
	// int64 extremes and 2^53±1 (int bytes 0 to 12), a word plus tail.
	f.Add([]byte{}, []byte{}, false, false)
	f.Add([]byte{5}, []byte{1}, false, false)
	f.Add([]byte{5, 6, 6, 5, 40}, []byte{0xff}, false, false)
	f.Add([]byte{40, 40, 40, 40}, []byte{0x0f}, true, false)
	f.Add([]byte{1, 2, 40, 41, 42, 43}, []byte{0b111100}, false, false)
	f.Add([]byte{1, 2, 40, 41, 42, 43}, []byte{0b001111}, false, false)
	f.Add([]byte{0, 5, 6, 40, 41}, []byte{0xff}, false, false)
	f.Add([]byte{7, 8, 7, 8, 9}, []byte{0xff}, false, false)
	f.Add([]byte{0, 1, 2, 3, 7, 8, 9, 10, 11, 12, 200}, []byte{0xff, 0xff}, true, false)
	long := make([]byte, 64+8+3)
	for i := range long {
		long[i] = byte(20 + i%37)
	}
	f.Add(long, []byte{0xa5, 0x5a, 0xff, 0x00, 0x0f, 0xf0, 0x33, 0xcc, 0x81, 0x7e}, false, false)
	// Constant selections of a value that is no binary fraction: three rows of
	// 0.1 (byte 84 is 1, over ten), and 0.7 amid other values.
	f.Add([]byte{84, 84, 84}, []byte{0xff}, false, true)
	f.Add([]byte{108, 40, 108, 41, 108, 108}, []byte{0b110101}, false, true)
	f.Fuzz(func(t *testing.T, data, mask []byte, asInts, tenths bool) {
		divisor := 1.0
		if tenths {
			divisor = 10
		}
		tab, err := NewTable(fuzzColumn(data, asInts, divisor))
		if err != nil {
			t.Fatal(err)
		}
		sel := selectRows(tab, func(row int) bool {
			return len(mask) > 0 && mask[row/8%len(mask)]>>(row%8)&1 == 1
		})
		v := View{table: tab, sel: sel}
		xs, err := v.Floats("x")
		if err != nil {
			t.Fatal(err)
		}
		want := stats.MomentsOf(xs)
		got, err := v.Moments("x", nil)
		if err != nil || !sameMoments(got, want) {
			t.Fatalf("Moments = %+v (%v), MomentsOf(Floats) = %+v", got, err, want)
		}
		hasNaN := false
		for _, x := range xs {
			hasNaN = hasNaN || x != x
		}
		if hasNaN {
			return // Welford's update, in row order
		}
		constant := len(xs) >= 2
		for _, x := range xs {
			constant = constant && x == xs[0]
		}
		if constant {
			requireConstant(t, fmt.Sprintf("%d rows of %v", len(xs), xs[0]), got, xs)
		}
		// Two permutations seeded by the data: reversed, and rotated.
		reversed := make([]float64, len(xs))
		rotated := make([]float64, len(xs))
		for i, x := range xs {
			reversed[len(xs)-1-i] = x
			rotated[(i+len(data))%len(xs)] = x
		}
		if a, b := stats.MomentsOf(reversed), stats.MomentsOf(rotated); !sameMoments(a, want) || !sameMoments(b, want) {
			t.Fatalf("MomentsOf sees row order: %+v, reversed %+v, rotated %+v", want, a, b)
		}
	})
}

var benchSinkMoments stats.Moments

// BenchmarkViewMoments times the aggregation behind compare_means at the
// benchmark's cold shape — three million rows, a tenth selected — on a
// byte-coded column and on the same values stored wide (gather, then the
// slice form), in ns per selected row. Run it with -cpu 1.
func BenchmarkViewMoments(b *testing.B) {
	const n = 3_000_000
	rng := rand.New(rand.NewSource(73))
	hours := make([]float64, n)
	for i := range hours {
		hours[i] = float64(1 + rng.Intn(98))
	}
	tab, err := NewTable(NewFloatColumn("hours", hours))
	if err != nil {
		b.Fatal(err)
	}
	keep := make([]bool, n)
	for i := range keep {
		keep[i] = rng.Intn(10) == 0
	}
	sel := selectRows(tab, func(row int) bool { return keep[row] })
	for _, k := range []struct {
		name string
		view View
	}{
		{"encoded", View{table: tab, sel: sel}},
		{"wide", View{table: wideTwin(tab), sel: sel}},
	} {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if benchSinkMoments, err = k.view.Moments("hours", nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(sel.Count()), "ns/selected_row")
		})
	}
}
