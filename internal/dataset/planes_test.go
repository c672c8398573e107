package dataset

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// This file tests the count of a small dictionary by its bit planes
// (planes.go). The contract: over any selection that is not full, the plane
// count of a byte-coded column of 2 to 8 codes equals the scan (countCodes)
// and the row-at-a-time count, exactly, on every store and pool; a mapped
// column counts through its source's planes; a dictionary of 1 or of 9 codes
// keeps the scan.

// referenceCounts counts the selected rows of a categorical or bool column
// per category through the row-at-a-time accessors only.
func referenceCounts(t *testing.T, v View, column string, cats []string) []int {
	t.Helper()
	c, err := v.Table().Column(column)
	if err != nil {
		t.Fatal(err)
	}
	index := make(map[string]int, len(cats))
	for i, cat := range cats {
		index[cat] = i
	}
	out := make([]int, len(cats))
	for row := 0; row < v.Table().NumRows(); row++ {
		if !v.Selection().Contains(row) {
			continue
		}
		s, err := c.StringAt(row)
		if err != nil {
			t.Fatal(err)
		}
		if i, ok := index[s]; ok {
			out[i]++
		}
	}
	return out
}

// planeValues returns a column of rows values over a dictionary of dict
// codes ("v0", "v1", …): the first rows walk every code once, so the
// dictionary is complete whenever rows >= dict, and the rest are random.
func planeValues(rng *rand.Rand, rows, dict int) []string {
	values := make([]string, rows)
	for i := range values {
		k := i
		if i >= dict {
			k = rng.Intn(dict)
		}
		values[i] = fmt.Sprintf("v%d", k)
	}
	return values
}

// planeTable is a table whose column x holds planeValues, and a dimension
// keyed on x that puts each of x's values in one of three groups g, so a
// join of every row of the table maps dim_g over x's codes.
func planeTable(t *testing.T, rng *rand.Rand, rows, dict int) (*Table, View) {
	t.Helper()
	tab, err := NewTable(NewCategoricalColumn("x", planeValues(rng, rows, dict)))
	if err != nil {
		t.Fatal(err)
	}
	keys, groups := make([]string, dict), make([]string, dict)
	for k := range keys {
		keys[k], groups[k] = fmt.Sprintf("v%d", k), fmt.Sprintf("g%d", k%3)
	}
	dim, err := NewTable(NewCategoricalColumn("x", keys), NewCategoricalColumn("g", groups))
	if err != nil {
		t.Fatal(err)
	}
	dimView, _ := dim.View(nil)
	return tab, dimView
}

// requirePlaneCount holds CountsFor of column over v to the row-at-a-time
// count, and the kernel the column's rows are counted by to want.
func requirePlaneCount(t *testing.T, label string, v View, column, want string) {
	t.Helper()
	c, err := v.Table().Column(column)
	if err != nil {
		t.Fatal(err)
	}
	cats := append([]string{"absent"}, c.dict...)
	got, err := v.CountsFor(column, cats)
	if err != nil {
		t.Fatalf("%s: CountsFor(%s): %v", label, column, err)
	}
	if ref := referenceCounts(t, v, column, cats); !reflect.DeepEqual(got, ref) {
		t.Fatalf("%s: CountsFor(%s) = %v, row-at-a-time %v", label, column, got, ref)
	}
	if kernel := c.countKernel(); kernel != want {
		t.Fatalf("%s: %s counted by %q, want %q", label, column, kernel, want)
	}
}

// TestCountPlanesMatchReference holds the plane count to the row-at-a-time
// count over dictionaries of 1 to 9 codes (1 and 9 pin the fallback to the
// scan), tables of 0 rows to several morsels, selected shares from none to
// every row, the in-memory, mmap, heap and CSV-ingest stores and pools of 1,
// 2 and 8 workers, and through a joined column mapped over the planes'
// column.
func TestCountPlanesMatchReference(t *testing.T) {
	sizes := []int{0, 1, 63, 64, 65, morselRows - 1, morselRows + 1, 3*morselRows + 17}
	if testing.Short() || raceEnabled {
		sizes = sizes[:6]
	}
	shares := []float64{0, 0.001, 0.1, 1}
	pools := []*Pool{NewPool(1), NewPool(2), NewPool(8)}
	defer func() {
		for _, p := range pools {
			p.Close()
		}
	}()
	rng := rand.New(rand.NewSource(5001))
	for _, rows := range sizes {
		for dict := 1; dict <= 9; dict++ {
			mem, dim := planeTable(t, rng, rows, dict)
			variants := map[string]*Table{"memory": mem}
			if rows > 0 {
				for store, tab := range snapshotVariants(t, mem) {
					variants[store] = tab
				}
			}
			kernel := "scan"
			if d := min(rows, dict); d >= 2 && d <= maxPlaneCodes {
				kernel = "planes"
			}
			sels := make([]*Selection, len(shares))
			draws := make([]float64, rows)
			for i, share := range shares {
				for row := range draws {
					draws[row] = rng.Float64()
				}
				sels[i] = selectRows(mem, func(row int) bool { return draws[row] < share })
			}
			// Every row but the last: a dense selection that is not full.
			sels = append(sels, selectRows(mem, func(row int) bool { return row < rows-1 }))
			for si, sel := range sels {
				for store, tab := range variants {
					p := pools[(si+rows+dict)%len(pools)]
					tab.SetPool(p)
					v, err := NewView(tab, sel)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("rows=%d dict=%d selected=%d store=%s workers=%d", rows, dict, sel.Count(), store, p.Workers())
					requirePlaneCount(t, label, v, "x", kernel)
					if rows == 0 {
						continue // no row to map
					}
					full, _ := tab.View(nil)
					joined, err := HashJoin(full, dim, "x", "x", "dim_")
					if err != nil {
						t.Fatal(err)
					}
					jv, err := NewView(joined, sel)
					if err != nil {
						t.Fatal(err)
					}
					requirePlaneCount(t, label+" joined", jv, "dim_g", kernel)
					if g, _ := joined.Column("dim_g"); g.src == nil || g.ref.planes != nil {
						t.Fatalf("%s: dim_g is not mapped over x, or holds planes of its own", label)
					}
				}
			}
		}
	}
}

// FuzzCountCodes holds the plane count to the scan: a byte-coded column of
// 1 to 9 codes drawn from data, its first rows walking every code so the
// dictionary is complete, a selection drawn bit by bit from sel (cycled),
// on a pool of one or two workers. Where the column planeCounted, countPlanes
// equals countCodes; either way CountsFor equals the row-at-a-time count.
func FuzzCountCodes(f *testing.F) {
	f.Add([]byte{}, uint8(0), []byte{0xff}, false)
	f.Add([]byte{0, 1, 2}, uint8(2), []byte{0x05}, false)
	f.Add([]byte{7, 6, 5, 4, 3, 2, 1, 0}, uint8(7), []byte{0xaa, 0x55}, true)
	f.Add(make([]byte, 200), uint8(5), []byte{0, 0, 0, 0, 0, 0, 0, 0, 1}, true)
	f.Add([]byte{9, 8, 8, 3}, uint8(8), []byte{0xfe}, false)
	pools := []*Pool{NewPool(1), NewPool(2)}
	f.Fuzz(func(t *testing.T, data []byte, dict uint8, sel []byte, twoWorkers bool) {
		d := 1 + int(dict)%9
		values := make([]string, 0, d+len(data))
		for k := 0; k < d; k++ {
			values = append(values, fmt.Sprintf("v%d", k))
		}
		for _, b := range data {
			values = append(values, fmt.Sprintf("v%d", int(b)%d))
		}
		tab, err := NewTable(NewCategoricalColumn("x", values))
		if err != nil {
			t.Fatal(err)
		}
		if twoWorkers {
			tab.SetPool(pools[1])
		} else {
			tab.SetPool(pools[0])
		}
		v := View{table: tab, sel: selectRows(tab, func(row int) bool {
			return len(sel) > 0 && sel[row/8%len(sel)]>>(row%8)&1 == 1
		})}
		c, _ := tab.Column("x")
		if c.planeCounted() != (d >= 2 && d <= maxPlaneCodes) {
			t.Fatalf("dict=%d: planeCounted = %v", d, c.planeCounted())
		}
		if c.planeCounted() {
			scan := countCodes(v, c.codes8, d)
			if planes := countPlanes(v, c.codePlanes(), d); !reflect.DeepEqual(planes, scan) {
				t.Fatalf("dict=%d rows=%d: plane count %v, scan %v", d, len(values), planes, scan)
			}
		}
		got, err := v.CountsFor("x", c.dict)
		if err != nil {
			t.Fatal(err)
		}
		if ref := referenceCounts(t, v, "x", c.dict); !reflect.DeepEqual(got, ref) {
			t.Fatalf("dict=%d rows=%d: CountsFor %v, row-at-a-time %v", d, len(values), got, ref)
		}
	})
}
