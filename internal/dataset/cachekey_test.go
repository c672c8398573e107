package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// This file holds the selection cache's code-set key: every spelling of one
// selection of codes shares one entry and one bitmap, which is the
// row-at-a-time reference's, and an entry is never shared by filters that
// select different rows.

// keyDims is what keyFixture's tables are made of: the dictionaries of the
// coded columns, the sorted comparison values of the coded numeric ones, and
// the dimension values each cat and wide value joins to.
type keyDims struct {
	cats, wides   []string
	fs, ns, pays  []float64 // distinct comparison values of f, n and dim_pay
	sector, label map[string]string
	pay           map[string]float64
	ok            map[string]bool
}

// wideValues is how many values keyFixture's wide column has: past 256, so
// a table of at least as many rows codes it in two bytes.
const wideValues = 300

// keyFixture builds a table of rows rows over every column kind a filter
// lowers to codes on: a byte-coded categorical cat, a categorical wide of
// 2-byte codes, a bool flag, a coded float f holding −0 and +0, a coded
// int64 n holding 2^53 and 2^53+1 (one float64), and the columns of two
// dimensions joined on cat and on wide, mapped over their codes: dim_sector,
// dim_pay (−0 and +0 again), dim_ok and band_label. The first rows hold every
// value of each column, so the dictionaries hold no more than the rows do.
func keyFixture(t testing.TB, rng *rand.Rand, rows int) (*Table, keyDims) {
	t.Helper()
	d := keyDims{sector: map[string]string{}, label: map[string]string{}, pay: map[string]float64{}, ok: map[string]bool{}}
	fVals := []float64{negZero, 0, -1.5, 2, 3.25, 7, 100}
	nVals := []int64{-3, 0, 5, 1 << 53, 1<<53 + 1, 1 << 60}
	payVals := []float64{negZero, 0, 1.5, -3, 1e9}
	for i := 0; i < 6; i++ {
		c := fmt.Sprintf("c%d", i)
		d.cats = append(d.cats, c)
		d.sector[c], d.pay[c], d.ok[c] = fmt.Sprintf("s%d", rng.Intn(3)), payVals[rng.Intn(len(payVals))], rng.Intn(2) == 0
	}
	for i := 0; i < wideValues; i++ {
		w := fmt.Sprintf("w%03d", i)
		d.wides = append(d.wides, w)
		d.label[w] = fmt.Sprintf("l%d", rng.Intn(4))
	}
	cats, wides, flags := make([]string, rows), make([]string, rows), make([]bool, rows)
	fs, ns := make([]float64, rows), make([]int64, rows)
	for i := range cats {
		pick := func(n int) int {
			if i < n {
				return i
			}
			return rng.Intn(n)
		}
		cats[i], wides[i], flags[i] = d.cats[pick(len(d.cats))], d.wides[pick(len(d.wides))], pick(2) == 0
		fs[i], ns[i] = fVals[pick(len(fVals))], nVals[pick(len(nVals))]
	}
	left, err := NewTable(NewCategoricalColumn("cat", cats), NewCategoricalColumn("wide", wides),
		NewBoolColumn("flag", flags), NewFloatColumn("f", fs), NewIntColumn("n", ns))
	if err != nil {
		t.Fatal(err)
	}
	sectors, pays, oks := make([]string, len(d.cats)), make([]float64, len(d.cats)), make([]bool, len(d.cats))
	for i, c := range d.cats {
		sectors[i], pays[i], oks[i] = d.sector[c], d.pay[c], d.ok[c]
	}
	labels := make([]string, len(d.wides))
	for i, w := range d.wides {
		labels[i] = d.label[w]
	}
	catDim, err := NewTable(NewCategoricalColumn("cat", d.cats), NewCategoricalColumn("sector", sectors),
		NewFloatColumn("pay", pays), NewBoolColumn("ok", oks))
	if err != nil {
		t.Fatal(err)
	}
	wideDim, err := NewTable(NewCategoricalColumn("wide", d.wides), NewCategoricalColumn("label", labels))
	if err != nil {
		t.Fatal(err)
	}
	tab := left
	for _, j := range []struct {
		dim         *Table
		key, prefix string
	}{{catDim, "cat", "dim_"}, {wideDim, "wide", "band_"}} {
		lv, _ := tab.View(nil)
		dv, _ := j.dim.View(nil)
		if tab, err = HashJoin(lv, dv, j.key, j.key, j.prefix); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"dim_sector", "dim_pay", "dim_ok", "band_label"} {
		if c, _ := tab.Column(name); c.via == nil {
			t.Fatalf("%s is not mapped", name)
		}
	}
	if c, _ := tab.Column("wide"); c.width != 2 {
		t.Fatalf("wide has %d-byte codes, want 2", c.width)
	}
	for _, name := range []string{"f", "n", "dim_pay"} {
		c, _ := tab.Column(name)
		if c.width != 1 {
			t.Fatalf("%s is not coded", name)
		}
	}
	distinct := func(vs []float64) []float64 {
		out := slices.Clone(vs)
		slices.Sort(out)
		return slices.Compact(out) // −0 == +0
	}
	d.fs, d.pays = distinct(fVals), distinct(payVals)
	for _, n := range nVals {
		d.ns = append(d.ns, float64(n))
	}
	d.ns = distinct(d.ns)
	return tab, d
}

// lowBounds returns spellings of a Range bound — low or high alike — whose
// first value of vs not below it is vs[i] (none when i == len(vs)): bounds
// anywhere in the gap (vs[i-1], vs[i]], −0 for +0.
func lowBounds(vs []float64, i int) []float64 {
	var out []float64
	switch {
	case i == 0:
		out = append(out, math.Inf(-1), math.Nextafter(vs[0], math.Inf(-1)), vs[0])
	case i == len(vs):
		out = append(out, math.Inf(1), math.Nextafter(vs[i-1], math.Inf(1)))
	default:
		out = append(out, vs[i], math.Nextafter(vs[i-1], math.Inf(1)))
		if mid := vs[i-1] + (vs[i]-vs[i-1])/2; mid > vs[i-1] {
			out = append(out, mid)
		}
	}
	if i < len(vs) && vs[i] == 0 {
		out = append(out, negZero)
	}
	return out
}

// gtBounds returns spellings of a GreaterThan threshold whose first value of
// vs above it is vs[i]: thresholds anywhere in [vs[i-1], vs[i]).
func gtBounds(vs []float64, i int) []float64 {
	switch {
	case i == 0:
		return []float64{math.Inf(-1), math.Nextafter(vs[0], math.Inf(-1))}
	case i == len(vs):
		return []float64{vs[i-1], math.Inf(1)}
	}
	out := []float64{vs[i-1], math.Nextafter(vs[i], math.Inf(-1))}
	if vs[i-1] == 0 {
		out = append(out, negZero)
	}
	return out
}

// pickOne returns a random element of xs.
func pickOne[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

// keySpellings draws groups of filters over keyFixture's table, each group
// spellings of one selection of codes.
func keySpellings(rng *rand.Rand, d keyDims) [][]Predicate {
	var groups [][]Predicate
	// A numeric band [vs[i], vs[j]) of f, n or dim_pay: bounds within one gap,
	// ±0, a GreaterThan for an open top, the band as two one-sided terms of
	// one column, and an empty band's NaN bound.
	band := func() []Predicate {
		name := pickOne(rng, []string{"f", "n", "dim_pay"})
		vs := map[string][]float64{"f": d.fs, "n": d.ns, "dim_pay": d.pays}[name]
		i := rng.Intn(len(vs) + 1)
		j := i + rng.Intn(len(vs)+1-i)
		var g []Predicate
		for k := 0; k < 3; k++ {
			g = append(g, Range{Column: name, Low: pickOne(rng, lowBounds(vs, i)), High: pickOne(rng, lowBounds(vs, j))})
		}
		g = append(g, And{Terms: []Predicate{
			Range{Column: name, Low: pickOne(rng, lowBounds(vs, i)), High: math.Inf(1)},
			Range{Column: name, Low: math.Inf(-1), High: pickOne(rng, lowBounds(vs, j))},
		}})
		if j == len(vs) {
			g = append(g, GreaterThan{Column: name, Threshold: pickOne(rng, gtBounds(vs, i))})
		}
		if i == j {
			g = append(g, Range{Column: name, Low: math.NaN(), High: pickOne(rng, vs)}, Range{Column: name, Low: pickOne(rng, vs), High: math.NaN()})
		}
		return g
	}
	// A set of cat, wide or flag values: In in any order, with duplicates and
	// an absent value, Equals for one value, two Ins meeting on the set.
	set := func() []Predicate {
		name := pickOne(rng, []string{"cat", "wide", "flag"})
		dict := map[string][]string{"cat": d.cats, "wide": d.wides, "flag": boolLabels}[name]
		perm := rng.Perm(len(dict))
		n := 1 + rng.Intn(min(3, len(dict)-1))
		vals := make([]string, n)
		for k := range vals {
			vals[k] = dict[perm[k]]
		}
		rev := slices.Clone(vals)
		slices.Reverse(rev)
		g := []Predicate{NewIn(name, vals...), In{Column: name, Values: append(rev, vals[0])}, In{Column: name, Values: append(slices.Clone(vals), "absent")}}
		if n == 1 {
			g = append(g, Equals{Column: name, Value: vals[0]})
		}
		if n < len(dict)-1 {
			g = append(g, And{Terms: []Predicate{
				In{Column: name, Values: append(slices.Clone(vals), dict[perm[n]])},
				In{Column: name, Values: append(rev, dict[perm[len(dict)-1]])},
			}})
		}
		return g
	}
	// A leaf over a mapped column and the set of source values mapping into
	// it, as an In over the source.
	mapped := func() []Predicate {
		var leaf Predicate
		src, dict := "cat", d.cats
		var in func(v string) bool
		switch rng.Intn(4) {
		case 0:
			s := fmt.Sprintf("s%d", rng.Intn(4)) // s3 is no sector
			leaf, in = Equals{Column: "dim_sector", Value: s}, func(v string) bool { return d.sector[v] == s }
		case 1:
			lo, hi := pickOne(rng, d.pays), pickOne(rng, d.pays)
			leaf, in = Range{Column: "dim_pay", Low: lo, High: hi}, func(v string) bool { return d.pay[v] >= lo && d.pay[v] < hi }
		case 2:
			leaf, in = Equals{Column: "dim_ok", Value: "true"}, func(v string) bool { return d.ok[v] }
		default:
			l := fmt.Sprintf("l%d", rng.Intn(4))
			src, dict = "wide", d.wides
			leaf, in = Equals{Column: "band_label", Value: l}, func(v string) bool { return d.label[v] == l }
		}
		var vals []string
		for _, v := range dict {
			if in(v) {
				vals = append(vals, v)
			}
		}
		return []Predicate{leaf, In{Column: src, Values: append(vals, "absent")}}
	}
	// Filters that select no code, whichever column is empty and whatever
	// other columns constrain.
	groups = append(groups, []Predicate{
		Range{Column: "f", Low: math.NaN(), High: 1},
		Equals{Column: "cat", Value: "absent"},
		And{Terms: []Predicate{Equals{Column: "cat", Value: d.cats[0]}, In{Column: "wide", Values: []string{"absent"}}}},
		And{Terms: []Predicate{In{Column: "cat", Values: d.cats[:1]}, Equals{Column: "cat", Value: d.cats[1]}}},
		And{Terms: []Predicate{Equals{Column: "flag", Value: "true"}, Range{Column: "n", Low: 5, High: 5}, Equals{Column: "dim_ok", Value: "true"}}},
	})
	leafGroups := []func() []Predicate{band, set, mapped}
	for k := 0; k < 12; k++ {
		groups = append(groups, leafGroups[rng.Intn(len(leafGroups))]())
	}
	// Conjunctions of two or three groups (a column may repeat): terms in any
	// order, nested, with an empty And among them.
	for k := 0; k < 8; k++ {
		parts := make([][]Predicate, 2+rng.Intn(2))
		for p := range parts {
			parts[p] = leafGroups[rng.Intn(len(leafGroups))]()
		}
		spell := func() []Predicate {
			terms := make([]Predicate, len(parts))
			for p, g := range parts {
				terms[p] = pickOne(rng, g)
			}
			rng.Shuffle(len(terms), func(a, b int) { terms[a], terms[b] = terms[b], terms[a] })
			return terms
		}
		nested := spell()
		groups = append(groups, []Predicate{
			And{Terms: spell()},
			And{Terms: spell()},
			And{Terms: []Predicate{nested[0], And{Terms: nested[1:]}}},
			And{Terms: append([]Predicate{And{}}, spell()...)},
		})
	}
	return groups
}

// TestSelectionCacheKeysBySelectedCodes holds the cache's key to the codes
// a filter selects, over random tables (keyFixture) on pools of 1, 2 and 8
// workers: the spellings of one selection of codes — bounds anywhere in one
// gap between a column's values, −0 for +0, In values in any order or
// repeated, And terms in any order or nesting, a column constrained twice,
// a leaf over a mapped column and the source values it maps to — share one
// entry, whose bitmap is the row-at-a-time reference of each spelling, and
// filters that select different rows never share one.
func TestSelectionCacheKeysBySelectedCodes(t *testing.T) {
	pools := []*Pool{NewPool(1), NewPool(2), NewPool(8)}
	for _, p := range pools {
		defer p.Close()
	}
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rows := wideValues + rng.Intn(400)
		if seed%8 == 0 {
			rows = 2*morselRows + rng.Intn(200)
		}
		tab, d := keyFixture(t, rng, rows)
		groups := keySpellings(rng, d)
		refs := make([][]*Selection, len(groups))
		for g, spellings := range groups {
			for _, p := range spellings {
				ref, err := referenceSelection(tab, p)
				if err != nil {
					t.Fatalf("seed %d: %s: %v", seed, p.Describe(), err)
				}
				refs[g] = append(refs[g], ref)
			}
		}
		for _, pool := range pools {
			tab.SetPool(pool)
			cache := NewSelectionCache(tab)
			rowsOf := map[*Selection]*Selection{} // each entry served, to the reference it was served for
			for g, spellings := range groups {
				var first *Selection
				for s, p := range spellings {
					label := fmt.Sprintf("seed %d, %d rows, %d workers, %s", seed, rows, pool.Workers(), p.Describe())
					got, err := cache.Where(p)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					requireSameBitmap(t, label, got, refs[g][s])
					if first == nil {
						first = got
					} else if got != first {
						t.Fatalf("%s: a second entry for the codes of %s", label, spellings[0].Describe())
					}
					if prev, ok := rowsOf[got]; ok {
						requireSameBitmap(t, label+": a shared entry", prev, refs[g][s])
					}
					rowsOf[got] = refs[g][s]
				}
			}
			if cache.Len() != len(rowsOf) {
				t.Fatalf("seed %d: %d entries, %d served", seed, cache.Len(), len(rowsOf))
			}
		}
	}
}

// FuzzSelectionKey decodes two fuzzed predicate documents over one
// keyFixture table and holds, for each the codec accepts, its round trip
// through MarshalPredicate and its cached selection to the row-at-a-time
// reference, errors included; two predicates of one key must select the
// same rows from one entry.
func FuzzSelectionKey(f *testing.F) {
	for _, pair := range [][2]string{
		{`{"type":"range","column":"f","low":-1,"high":2.5}`, `{"type":"range","column":"f","low":-0.3,"high":3}`},
		{`{"type":"in","column":"cat","values":["c1","c0","c1"]}`, `{"type":"or","terms":[{"type":"equals","column":"cat","value":"c0"},{"type":"equals","column":"cat","value":"c1"}]}`},
		{`{"type":"and","terms":[{"type":"gt","column":"n","threshold":4},{"type":"equals","column":"dim_sector","value":"s1"}]}`,
			`{"type":"and","terms":[{"type":"and","terms":[{"type":"equals","column":"dim_sector","value":"s1"}]},{"type":"range","column":"n","low":5,"high":"+inf"}]}`},
		{`{"type":"equals","column":"band_label","value":"l2"}`, `{"type":"not","term":{"type":"in","column":"wide","values":["w001","w299"]}}`},
		{`{"type":"and","terms":[{"type":"equals","column":"flag","value":"true"},{"type":"range","column":"nope","low":0,"high":1}]}`, `{"type":"and"}`},
		{`{"type":"range","column":"dim_pay","low":"-inf","high":0}`, `{"type":"gt","column":"cat","threshold":1}`},
	} {
		f.Add(pair[0], pair[1])
	}
	tab, _ := keyFixture(f, rand.New(rand.NewSource(1)), wideValues+33)
	f.Fuzz(func(t *testing.T, a, b string) {
		var preds []Predicate
		for _, doc := range []string{a, b} {
			p, err := UnmarshalPredicate([]byte(doc))
			if err != nil || len(doc) > 2048 {
				continue
			}
			data, err := MarshalPredicate(p)
			if err != nil {
				t.Fatalf("%s: an accepted predicate does not encode: %v", doc, err)
			}
			back, err := UnmarshalPredicate(data)
			if err != nil {
				t.Fatalf("%s: its encoding %s does not decode: %v", doc, data, err)
			}
			if again, err := MarshalPredicate(back); err != nil || string(again) != string(data) {
				t.Fatalf("%s: encodes as %s, then as %s (%v)", doc, data, again, err)
			}
			preds = append(preds, p)
		}
		cache := NewSelectionCache(tab)
		sels := make([]*Selection, len(preds))
		for i, p := range preds {
			want, wantErr := referenceSelection(tab, p)
			got, err := cache.Where(p)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s: the cache errs %v, the reference %v", p.Describe(), err, wantErr)
			}
			if err == nil {
				requireSameBitmap(t, p.Describe(), got, want)
			}
			sels[i] = got
		}
		if len(preds) < 2 {
			return
		}
		ka, errA := cache.key(preds[0], nil)
		kb, errB := cache.key(preds[1], nil)
		if errA == nil && errB == nil && string(ka) == string(kb) && sels[0] != sels[1] {
			t.Fatalf("%s and %s key as one but were served two entries", preds[0].Describe(), preds[1].Describe())
		}
	})
}
