package dataset

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"aware/internal/colstore"
)

// This file is the differential test bed of mapped columns: a table whose
// derived and joined columns are mapped over their sources' codes, and its
// twin, the same rows with every column storing its own codes, must give
// bit-identical answers to every reader — filters, counts, tallies, moments,
// bins, cross-counts, decoded values, row gathers, joins, derives and the
// snapshot bytes — over sources of 1-, 2- and 4-byte codes, on pools of one
// and two workers, over full and filtered views.

// wideDict is a sorted dictionary one entry past what two-byte codes index,
// built once.
var wideDict = sync.OnceValue(func() []string {
	dict := make([]string, 1<<16+1)
	for i := range dict {
		dict[i] = fmt.Sprintf("k%06d", i)
	}
	return dict
})

// mappedKey returns a categorical key of rows rows stored at the given code
// width: its dictionary lists values no row holds, so a mapped column over
// it maps codes that never occur.
func mappedKey(rng *rand.Rand, rows, width int) *Column {
	var dict []string
	switch width {
	case 1:
		dict = wideDict()[:1+rng.Intn(256)]
	case 2:
		dict = wideDict()[:257+rng.Intn(700)]
	default:
		dict = wideDict()
	}
	used := 1 + rng.Intn(min(len(dict), 40))
	pick := make([]uint32, used)
	for i := range pick {
		pick[i] = uint32(rng.Intn(len(dict)))
	}
	p := &colstore.Column{Name: "key", Kind: colstore.Categorical, Width: width, Dict: dict, CodeOf: make(map[string]uint32, len(dict))}
	for code, v := range dict {
		p.CodeOf[v] = uint32(code)
	}
	code := func(int) uint32 { return pick[rng.Intn(used)] }
	switch width {
	case 1:
		p.Codes8 = make([]uint8, rows)
		for i := range p.Codes8 {
			p.Codes8[i] = uint8(code(i))
		}
	case 2:
		p.Codes16 = make([]uint16, rows)
		for i := range p.Codes16 {
			p.Codes16[i] = uint16(code(i))
		}
	default:
		p.Codes32 = make([]uint32, rows)
		for i := range p.Codes32 {
			p.Codes32[i] = code(i)
		}
	}
	return wrapColumn(p)
}

// mappedFixture builds a table holding mapped columns of every kind over a
// key of 1-, 2- or 4-byte codes: the right columns of a dimension joined on
// the key (a gathered join when filtered is set), derives over a coded column
// and over the mapped columns, and the columns of a second dimension joined
// on a mapped column, which map over the key as well; and, over the bool
// flag, the columns of a third dimension and a derive over one. It returns
// the table and the names of its mapped columns.
func mappedFixture(t testing.TB, rng *rand.Rand, rows, width int, filtered bool) (*Table, []string) {
	t.Helper()
	key := mappedKey(rng, rows, width)
	hoursPool := []float64{negZero, 0, 10, 12.5, 40, 41, 99}
	hours, wide := make([]float64, rows), make([]float64, rows)
	flags := make([]bool, rows)
	for i := range hours {
		hours[i], wide[i], flags[i] = hoursPool[rng.Intn(len(hoursPool))], rng.NormFloat64(), rng.Intn(3) > 0
	}
	flags[0] = true // a filtered join keeps a row
	left, err := NewTable(key, NewFloatColumn("hours", hours), NewFloatColumn("w", wide), NewBoolColumn("flag", flags))
	if err != nil {
		t.Fatal(err)
	}
	// The dimension: one row per key value the left rows hold, in random
	// order, with a coded float holding both zeros, a coded int, a
	// categorical, a bool and a float that one NaN keeps wide.
	var keys []string
	for _, v := range key.dict {
		if n := key.codeTallies()[key.codeOf[v]]; n > 0 {
			keys = append(keys, v)
		}
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	n := len(keys)
	sectors, pay, rank, ok, noisy := make([]string, n), make([]float64, n), make([]int64, n), make([]bool, n), make([]float64, n)
	payPool := []float64{negZero, 0, 1.5, -3, 1e9}
	for i := range keys {
		sectors[i] = fmt.Sprintf("s%d", rng.Intn(4))
		pay[i], rank[i], ok[i], noisy[i] = payPool[rng.Intn(len(payPool))], int64(rng.Intn(5))-2, rng.Intn(2) == 0, rng.Float64()
	}
	noisy[0] = math.NaN()
	dim, err := NewTable(NewCategoricalColumn("key", keys), NewCategoricalColumn("sector", sectors),
		NewFloatColumn("pay", pay), NewIntColumn("rank", rank), NewBoolColumn("ok", ok), NewFloatColumn("noisy", noisy))
	if err != nil {
		t.Fatal(err)
	}
	lv, _ := left.View(nil)
	if filtered {
		if lv, err = left.View(Equals{Column: "flag", Value: "true"}); err != nil {
			t.Fatal(err)
		}
	}
	dv, _ := dim.View(nil)
	tab, err := HashJoin(lv, dv, "key", "key", "r_")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []struct {
		name string
		e    Expr
	}{
		{"d_hours", Bucket{Arg: Col{Name: "hours"}, Width: 20}},
		{"d_pay", Binary{Op: OpMul, L: Col{Name: "r_pay"}, R: Const{Value: -2}}},
		{"d_sum", Binary{Op: OpAdd, L: Col{Name: "r_pay"}, R: Col{Name: "r_rank"}}},
		{"d_again", Binary{Op: OpSub, L: Col{Name: "d_pay"}, R: Const{Value: 1}}},
	} {
		if tab, err = tab.Derive(d.name, d.e); err != nil {
			t.Fatal(err)
		}
	}
	bands, err := tab.Categories("r_sector")
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]string, len(bands))
	for i := range labels {
		labels[i] = fmt.Sprintf("band-%d", rng.Intn(3))
	}
	bandDim, err := NewTable(NewCategoricalColumn("sector", bands), NewCategoricalColumn("label", labels))
	if err != nil {
		t.Fatal(err)
	}
	tv, _ := tab.View(nil)
	bv, _ := bandDim.View(nil)
	if tab, err = HashJoin(tv, bv, "r_sector", "sector", "s_"); err != nil {
		t.Fatal(err)
	}
	// And a dimension over the bool flag, whose columns map over its codes.
	flagDim, err := NewTable(NewBoolColumn("flag", []bool{true, false}), NewCategoricalColumn("tone", []string{"warm", "cool"}),
		NewFloatColumn("bonus", []float64{negZero, 2.5}))
	if err != nil {
		t.Fatal(err)
	}
	tv, _ = tab.View(nil)
	fv, _ := flagDim.View(nil)
	if tab, err = HashJoin(tv, fv, "flag", "flag", "f_"); err != nil {
		t.Fatal(err)
	}
	if tab, err = tab.Derive("d_bonus", Binary{Op: OpSub, L: Col{Name: "f_bonus"}, R: Col{Name: "f_bonus"}}); err != nil {
		t.Fatal(err)
	}
	mapped := []string{"r_sector", "r_pay", "r_rank", "r_ok", "d_hours", "d_pay", "d_sum", "d_again", "s_sector", "s_label", "f_tone", "f_bonus", "d_bonus"}
	for _, name := range mapped {
		c, _ := tab.Column(name)
		if c.via == nil || c.src.via != nil {
			t.Fatalf("%s: mapped = %v, its source mapped = %v", name, c.via != nil, c.src != nil && c.src.via != nil)
		}
	}
	if c, _ := tab.Column("r_noisy"); c.via != nil {
		t.Fatalf("the wide right column r_noisy is mapped") // gathered, and stored anew
	}
	return tab, mapped
}

// storedTwin returns the table with every column storing its own codes: the
// mapped ones written out, with decode tables of their own.
func storedTwin(t testing.TB, tab *Table) *Table {
	t.Helper()
	cols := make([]*Column, len(tab.columns))
	for i, c := range tab.columns {
		cols[i] = wrapColumn(c.phys.Materialize())
	}
	twin, err := NewTable(cols...)
	if err != nil {
		t.Fatal(err)
	}
	return twin
}

// mappedPredicates returns filters over the mapped columns of tab: Equals
// and In over every categorical and bool one — each value, an absent one, a
// random subset — Range and GreaterThan over every numeric one at its values
// and between them, and And, Or and Not over them.
func mappedPredicates(t testing.TB, rng *rand.Rand, tab *Table, names []string) []Predicate {
	var leaves []Predicate
	for _, name := range names {
		c, _ := tab.Column(name)
		if c.Type == Categorical || c.Type == Bool {
			var subset []string
			for _, v := range c.dict {
				leaves = append(leaves, Equals{Column: name, Value: v})
				if rng.Intn(2) == 0 {
					subset = append(subset, v)
				}
			}
			leaves = append(leaves, Equals{Column: name, Value: "absent"}, NewIn(name, append(subset, "absent")...), NewIn(name, "absent"))
			continue
		}
		for _, v := range c.values {
			leaves = append(leaves, Range{Column: name, Low: v, High: v + 1}, GreaterThan{Column: name, Threshold: v},
				Range{Column: name, Low: math.Inf(-1), High: v}, GreaterThan{Column: name, Threshold: math.Nextafter(v, math.Inf(-1))})
		}
		leaves = append(leaves, Range{Column: name, Low: math.NaN(), High: 1}, GreaterThan{Column: name, Threshold: math.Inf(1)})
	}
	preds := slices.Clone(leaves)
	for i := 0; i < 40; i++ {
		a, b := leaves[rng.Intn(len(leaves))], leaves[rng.Intn(len(leaves))]
		preds = append(preds, And{Terms: []Predicate{a, b}}, Or{Terms: []Predicate{a, Not{Inner: b}}}, Not{Inner: a})
	}
	return preds
}

// requireMappedLikeStored holds tab, whose mapped columns are named, to its
// stored twin, bit for bit, on pool p, over the full view and over a filter
// that keeps about two rows in three.
func requireMappedLikeStored(t *testing.T, label string, rng *rand.Rand, tab *Table, mapped []string, p *Pool) {
	t.Helper()
	twin := storedTwin(t, tab)
	tab.SetPool(p)
	twin.SetPool(p)
	label = fmt.Sprintf("%s, %d workers", label, p.workers)

	// Snapshot bytes.
	dir := t.TempDir()
	var snaps [2][]byte
	for i, x := range []*Table{tab, twin} {
		path := filepath.Join(dir, fmt.Sprintf("t%d.aware", i))
		if err := x.Snapshot(path); err != nil {
			t.Fatalf("%s: snapshot: %v", label, err)
		}
		snaps[i], _ = os.ReadFile(path)
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Fatalf("%s: the mapped table snapshots to %d bytes unlike its stored twin's %d", label, len(snaps[0]), len(snaps[1]))
	}

	// Filters, word for word.
	for _, pred := range mappedPredicates(t, rng, tab, mapped) {
		got, gotErr := tab.Where(pred)
		want, wantErr := twin.Where(pred)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s: Where(%s) = %v, the twin's %v", label, pred.Describe(), gotErr, wantErr)
		}
		if gotErr == nil {
			requireSameWords(t, fmt.Sprintf("%s: Where(%s)", label, pred.Describe()), got, want)
		}
	}

	// Whole-table reads.
	for _, name := range mapped {
		c, _ := tab.Column(name)
		same := func(what string, got, want any, gotErr, wantErr error) {
			t.Helper()
			if gotErr != nil || wantErr != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s(%s) = %v (%v), the twin's %v (%v)", label, what, name, got, gotErr, want, wantErr)
			}
		}
		if c.Type == Categorical || c.Type == Bool {
			got, gotErr := tab.Categories(name)
			want, wantErr := twin.Categories(name)
			same("Categories", got, want, gotErr, wantErr)
			gotCounts, gotErr := tab.ValueCounts(name)
			wantCounts, wantErr := twin.ValueCounts(name)
			same("ValueCounts", gotCounts, wantCounts, gotErr, wantErr)
			gotRows, gotErr := tab.Strings(name)
			wantRows, wantErr := twin.Strings(name)
			same("Strings", gotRows, wantRows, gotErr, wantErr)
			continue
		}
		got, gotErr := tab.Floats(name)
		want, wantErr := twin.Floats(name)
		same("Floats", bitsOf(got), bitsOf(want), gotErr, wantErr)
	}

	// View reads.
	filter := Or{Terms: []Predicate{Equals{Column: "flag", Value: "true"}, GreaterThan{Column: "w", Threshold: 1}}}
	for _, pred := range []Predicate{nil, filter} {
		mv, err := tab.View(pred)
		if err != nil {
			t.Fatal(err)
		}
		tv, err := twin.View(pred)
		if err != nil {
			t.Fatal(err)
		}
		vlabel := fmt.Sprintf("%s, view %v", label, pred != nil)
		axes := append([]string{"key", "hours", "flag", "w"}, mapped...)
		if key, _ := tab.Column("key"); key.width == 4 {
			axes = axes[1:] // a 65,537-value axis is crossed with the first mapped column only
		}
		for i, name := range mapped {
			c, _ := tab.Column(name)
			same := func(what string, got, want any, gotErr, wantErr error) {
				t.Helper()
				if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %s(%s) = %v (%v), the twin's %v (%v)", vlabel, what, name, got, gotErr, want, wantErr)
				}
			}
			if c.Type == Categorical || c.Type == Bool {
				cats := append(slices.Clone(c.dict), "absent")
				got, gotErr := mv.CountsFor(name, cats)
				want, wantErr := tv.CountsFor(name, cats)
				same("CountsFor", got, want, gotErr, wantErr)
				gotGroups, gotErr := mv.GroupBy(name)
				wantGroups, wantErr := tv.GroupBy(name)
				same("GroupBy", gotGroups, wantGroups, gotErr, wantErr)
			} else {
				got, gotErr := mv.Tally(name, nil)
				want, wantErr := tv.Tally(name, nil)
				same("Tally", tallyBits(got), tallyBits(want), gotErr, wantErr)
				gm, gotErr := mv.Moments(name, nil)
				wm, wantErr := tv.Moments(name, nil)
				same("Moments", []any{gm.N, math.Float64bits(gm.Mean), math.Float64bits(gm.M2)}, []any{wm.N, math.Float64bits(wm.Mean), math.Float64bits(wm.M2)}, gotErr, wantErr)
				gotRows, gotErr := mv.Floats(name)
				wantRows, wantErr := tv.Floats(name)
				same("View.Floats", bitsOf(gotRows), bitsOf(wantRows), gotErr, wantErr)
				for _, bins := range []int{1, 3, 7} {
					gotBins, gotErr := mv.BinCounts(name, bins)
					wantBins, wantErr := tv.BinCounts(name, bins)
					same(fmt.Sprintf("BinCounts/%d", bins), gotBins, wantBins, gotErr, wantErr)
				}
			}
			others := axes
			if i == 0 && axes[0] != "key" {
				others = append([]string{"key"}, axes...)
			}
			for _, other := range others {
				for _, pair := range [][2]string{{name, other}, {other, name}} {
					got, gotErr := mv.CrossCounts(pair[0], pair[1], 4)
					want, wantErr := tv.CrossCounts(pair[0], pair[1], 4)
					same("CrossCounts×"+pair[0]+"×"+pair[1], got, want, gotErr, wantErr)
				}
			}
		}
	}

	// Row gathers, with one random source each.
	seed := rng.Int63()
	idx := rand.New(rand.NewSource(seed)).Perm(tab.NumRows())[:tab.NumRows()/2]
	gotSel, err := tab.Select(idx)
	if err != nil {
		t.Fatal(err)
	}
	wantSel, err := twin.Select(idx)
	if err != nil {
		t.Fatal(err)
	}
	requireTablesEqual(t, label+": Select", gotSel, wantSel)
	if tab.NumRows() >= 2 {
		ge, gv, err := tab.Split(rand.New(rand.NewSource(seed)), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		we, wv, err := twin.Split(rand.New(rand.NewSource(seed)), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		requireTablesEqual(t, label+": Split exploration", ge, we)
		requireTablesEqual(t, label+": Split validation", gv, wv)
	}
	shuffled := []string{"key", mapped[0], mapped[2]}
	gotShuf, err := tab.Shuffle(rand.New(rand.NewSource(seed)), shuffled...)
	if err != nil {
		t.Fatal(err)
	}
	wantShuf, err := twin.Shuffle(rand.New(rand.NewSource(seed)), shuffled...)
	if err != nil {
		t.Fatal(err)
	}
	requireTablesEqual(t, label+": Shuffle", gotShuf, wantShuf)

	// A join keyed on a mapped column, a dimension holding each of its values
	// once or, the second time, one of them twice; and a derive over one.
	sectors, _ := twin.Categories("r_sector")
	for _, dup := range []bool{false, true} {
		values := slices.Clone(sectors)
		if dup {
			values = append(values, sectors[rng.Intn(len(sectors))])
		}
		weights := make([]float64, len(values))
		for i := range weights {
			weights[i] = float64(rng.Intn(3))
		}
		dim, err := NewTable(NewCategoricalColumn("sector", values), NewFloatColumn("weight", weights))
		if err != nil {
			t.Fatal(err)
		}
		dv, _ := dim.View(nil)
		for _, pred := range []Predicate{nil, filter} {
			mv, _ := tab.View(pred)
			tv, _ := twin.View(pred)
			got, gotErr := HashJoin(mv, dv, "r_sector", "sector", "x_")
			want, wantErr := HashJoin(tv, dv, "r_sector", "sector", "x_")
			jlabel := fmt.Sprintf("%s: HashJoin on r_sector, view %v, duplicated %v", label, pred != nil, dup)
			if gotErr != nil || wantErr != nil {
				if !errors.Is(gotErr, ErrJoinFansOut) || gotErr.Error() != fmt.Sprint(wantErr) {
					t.Fatalf("%s: %v, the twin's %v", jlabel, gotErr, wantErr)
				}
				continue
			}
			requireTablesEqual(t, jlabel, got, want)
			gw, _ := got.Column("x_weight")
			ww, _ := want.Column("x_weight")
			if !reflect.DeepEqual(gw.codeTallies(), ww.codeTallies()) {
				t.Fatalf("%s: x_weight tallies %v, the twin's %v", jlabel, gw.codeTallies(), ww.codeTallies())
			}
		}
	}
	e := Bucket{Arg: Binary{Op: OpMul, L: Col{Name: "r_pay"}, R: Col{Name: "d_hours"}}, Width: 3}
	for _, e := range []Expr{e, Binary{Op: OpDiv, L: Col{Name: "d_pay"}, R: Col{Name: "r_rank"}}} {
		got, gotErr := tab.Derive("e", e)
		want, wantErr := twin.Derive("e", e)
		if gotErr != nil || wantErr != nil {
			t.Fatalf("%s: Derive(%s) = %v, the twin's %v", label, e.Describe(), gotErr, wantErr)
		}
		requireTablesEqual(t, label+": Derive "+e.Describe(), got, want)
		g, _ := got.Column("e")
		w, _ := want.Column("e")
		gp, wp := g.phys.Materialize(), w.phys.Materialize()
		if gp.Width != wp.Width || !slices.Equal(gp.Values, wp.Values) || !slices.Equal(gp.Codes8, wp.Codes8) {
			t.Fatalf("%s: Derive(%s) stored as %s %x, the twin's as %s %x", label, e.Describe(), gp.Encoding(), gp.Values, wp.Encoding(), wp.Values)
		}
	}
}

// bitsOf returns the bit patterns of xs, so that NaN compares equal to itself
// and −0 unequal to +0.
func bitsOf(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

// tallyBits returns a tally as bit patterns and counts.
func tallyBits(t Tally) [3]any {
	return [3]any{bitsOf(t.Values), t.Counts, bitsOf(t.Rows)}
}

// TestMappedColumnsMatchStored is the mapped columns' differential test:
// sources of 1-, 2- and 4-byte codes, shared and gathered joins, pools of
// one and two workers. The 1- and 2-byte sources span three morsels, except
// under -short and -race.
func TestMappedColumnsMatchStored(t *testing.T) {
	pools := []*Pool{NewPool(1), NewPool(2)}
	for _, p := range pools {
		defer p.Close()
	}
	for i, width := range []int{1, 2, 4} {
		for _, filtered := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(4600 + 2*i)))
			rows := 2*morselRows + 1 + rng.Intn(500)
			if testing.Short() || raceEnabled || width == 4 {
				rows = 300 + rng.Intn(200)
			}
			tab, mapped := mappedFixture(t, rng, rows, width, filtered)
			for _, p := range pools {
				requireMappedLikeStored(t, fmt.Sprintf("u%d key, gathered %v", 8*width, filtered), rng, tab, mapped, p)
			}
		}
	}
}

// FuzzMappedColumn is the CI fuzz smoke target of mapped columns: a fixture
// (mappedFixture) of a few to a few hundred rows over a key of 1-, 2- or
// 4-byte codes, joined full or filtered, held to its stored twin on a pool
// of one or two workers.
func FuzzMappedColumn(f *testing.F) {
	f.Add(int64(1), uint16(40), uint8(0), false, false)
	f.Add(int64(2), uint16(1), uint8(1), true, false)
	f.Add(int64(3), uint16(300), uint8(2), false, true)
	f.Add(int64(4), uint16(70), uint8(1), true, true)
	pools := []*Pool{NewPool(1), NewPool(2)}
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, width uint8, filtered, twoWorkers bool) {
		rng := rand.New(rand.NewSource(seed))
		w := []int{1, 2, 4}[int(width)%3]
		tab, mapped := mappedFixture(t, rng, 1+int(rows)%400, w, filtered)
		p := pools[0]
		if twoWorkers {
			p = pools[1]
		}
		requireMappedLikeStored(t, fmt.Sprintf("seed %d u%d key, gathered %v", seed, 8*w, filtered), rng, tab, mapped, p)
	})
}
