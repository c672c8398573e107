package colstore

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// Value pools of the coded numeric columns: both zeros, an infinity, a
// denormal, and int64 values no float64 tells apart (2^53 and 2^53+1).
var (
	narrowFloats = []float64{0, math.Copysign(0, -1), 1.5, -2.25, math.Inf(1), math.SmallestNonzeroFloat64, 1e300}
	narrowInts   = []int64{1 << 53, 1<<53 + 1, 1<<53 - 1, math.MinInt64, math.MaxInt64, 0, -1}
)

// randomStore builds a store with every column kind and encoding — wide and
// coded numeric columns, categorical codes of one or (past 256 distinct
// values) two bytes — and rng-driven content. Dictionary cardinality and row
// count vary so padding paths (name pad, dict pad, bool pad) all get
// exercised across seeds.
func randomStore(t *testing.T, rng *rand.Rand, rows int) *Store {
	t.Helper()
	floats := make([]float64, rows)
	ints := make([]int64, rows)
	cats := make([]string, rows)
	bools := make([]bool, rows)
	narrowF := make([]float64, rows)
	narrowI := make([]int64, rows)
	many := make([]string, rows)
	card := 1 + rng.Intn(40)
	for i := 0; i < rows; i++ {
		floats[i] = math.Round(rng.NormFloat64()*1000) / 16
		ints[i] = rng.Int63n(1<<40) - 1<<39
		cats[i] = fmt.Sprintf("val-%03d", rng.Intn(card))
		bools[i] = rng.Intn(2) == 1
		narrowF[i] = narrowFloats[rng.Intn(len(narrowFloats))]
		narrowI[i] = narrowInts[rng.Intn(len(narrowInts))]
		many[i] = fmt.Sprintf("w%03d", rng.Intn(400))
	}
	// Occasionally include special float values — they must round-trip bit-for-bit.
	if rows > 4 {
		floats[0] = math.Inf(1)
		floats[1] = math.Inf(-1)
		floats[2] = math.Copysign(0, -1)
		floats[3] = math.NaN()
	}
	st, err := NewStore(
		NewFloatColumn("f", floats),
		NewIntColumn("i", ints),
		NewCategoricalColumn("c", cats),
		NewBoolColumn("b", bools),
		NewFloatColumn("fz", narrowF),
		NewIntColumn("iz", narrowI),
		NewCategoricalColumn("w", many),
	)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	return st
}

// cell reads row i of a column, whatever its encoding, as the value its kind
// holds: a float64, an int64, a string or a bool.
func cell(c *Column, i int) any {
	code := 0
	switch c.Width {
	case 1:
		code = int(c.Codes8[i])
	case 2:
		code = int(c.Codes16[i])
	case 4:
		code = int(c.Codes32[i])
	}
	switch {
	case c.Kind == Categorical:
		return c.Dict[code]
	case c.Kind == Float64 && c.Width != 0:
		return math.Float64frombits(c.Values[code])
	case c.Kind == Int64 && c.Width != 0:
		return int64(c.Values[code])
	case c.Kind == Float64:
		return c.Floats[i]
	case c.Kind == Int64:
		return c.Ints[i]
	default:
		return c.Bools[i]
	}
}

// sameCell compares two cells, float64 values bit for bit.
func sameCell(a, b any) bool {
	if x, ok := a.(float64); ok {
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	}
	return a == b
}

// sameStore asserts b holds exactly a's logical content, in the same
// encoding.
func sameStore(t *testing.T, a, b *Store) {
	t.Helper()
	if a.Rows() != b.Rows() {
		t.Fatalf("rows: %d vs %d", a.Rows(), b.Rows())
	}
	if a.NumColumns() != b.NumColumns() {
		t.Fatalf("columns: %d vs %d", a.NumColumns(), b.NumColumns())
	}
	for idx, ca := range a.Columns() {
		cb := b.Columns()[idx]
		if ca.Name != cb.Name || ca.Kind != cb.Kind || ca.Encoding() != cb.Encoding() {
			t.Fatalf("column %d: (%q,%v,%s) vs (%q,%v,%s)", idx, ca.Name, ca.Kind, ca.Encoding(), cb.Name, cb.Kind, cb.Encoding())
		}
		for i := 0; i < a.Rows(); i++ {
			if x, y := cell(ca, i), cell(cb, i); !sameCell(x, y) {
				t.Fatalf("column %q row %d: %v vs %v", ca.Name, i, x, y)
			}
		}
		if ca.Kind == Categorical && cb.CodeOf == nil {
			t.Fatalf("column %q: CodeOf not built", cb.Name)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	for _, rows := range []int{0, 1, 2, 7, 8, 9, 63, 64, 65, 1000} {
		t.Run(fmt.Sprintf("rows=%d", rows), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(rows) + 1))
			st := randomStore(t, rng, rows)
			path := filepath.Join(t.TempDir(), "rt.aware")
			if err := st.WriteSnapshot(path); err != nil {
				t.Fatalf("WriteSnapshot: %v", err)
			}

			mapped, err := Open(path)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer mapped.Close()
			sameStore(t, st, mapped)
			if mapped.Path() != path {
				t.Errorf("Path() = %q, want %q", mapped.Path(), path)
			}
			if fi, _ := os.Stat(path); mapped.SizeBytes() != fi.Size() {
				t.Errorf("SizeBytes() = %d, file is %d", mapped.SizeBytes(), fi.Size())
			}
			if mapped.Version() != SnapshotVersion {
				t.Errorf("Version() = %d, want %d", mapped.Version(), SnapshotVersion)
			}

			heap, err := OpenFile(path, OpenOptions{NoMmap: true})
			if err != nil {
				t.Fatalf("OpenFile(NoMmap): %v", err)
			}
			defer heap.Close()
			if heap.Resident() {
				t.Error("NoMmap store reports Resident")
			}
			sameStore(t, st, heap)
		})
	}
}

func TestSnapshotWriteDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	st := randomStore(t, rng, 257)
	dir := t.TempDir()
	p1 := filepath.Join(dir, "a.aware")
	p2 := filepath.Join(dir, "b.aware")
	if err := st.WriteSnapshot(p1); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(p2); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(p1)
	b2, _ := os.ReadFile(p2)
	if !bytes.Equal(b1, b2) {
		t.Fatal("two writes of the same store differ")
	}
}

func TestStoreCloseIdempotent(t *testing.T) {
	st := randomStore(t, rand.New(rand.NewSource(7)), 100)
	path := filepath.Join(t.TempDir(), "c.aware")
	if err := st.WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}
	m, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("heap-store Close: %v", err)
	}
}

func TestZeroColumnSnapshotKeepsRows(t *testing.T) {
	st, err := NewStore()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "empty.aware")
	if err := st.WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}
	got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if got.Rows() != 0 || got.NumColumns() != 0 {
		t.Fatalf("got %d rows, %d columns", got.Rows(), got.NumColumns())
	}
}

// TestBuilderMatchesWriteSnapshot is the byte-identity contract between the
// two producer paths: a RowBuilder fed rows (in an order that makes its
// provisional first-seen dictionary differ from sorted order) must emit
// exactly the file Store.WriteSnapshot emits for the same logical content.
func TestBuilderMatchesWriteSnapshot(t *testing.T) {
	rows := 513
	rng := rand.New(rand.NewSource(99))
	st := randomStore(t, rng, rows)
	dir := t.TempDir()
	direct := filepath.Join(dir, "direct.aware")
	built := filepath.Join(dir, "built.aware")
	if err := st.WriteSnapshot(direct); err != nil {
		t.Fatal(err)
	}

	b, err := NewRowBuilder(st.Schema(), built)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]any, st.NumColumns())
	for i := 0; i < rows; i++ {
		for j, c := range st.Columns() {
			row[j] = cell(c, i)
		}
		if err := b.Append(row...); err != nil {
			t.Fatalf("Append row %d: %v", i, err)
		}
	}
	if err := b.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}

	d1, _ := os.ReadFile(direct)
	d2, _ := os.ReadFile(built)
	if !bytes.Equal(d1, d2) {
		t.Fatalf("builder output differs from WriteSnapshot: %d vs %d bytes", len(d2), len(d1))
	}
}

// TestEncodingDecidedOnce holds the one encoding rule at its boundaries, on
// both producer paths: categorical dictionaries of 255 to 257 and 65,535 to
// 65,537 entries take 1-, 2- and 4-byte codes; a numeric column of 256
// distinct bit patterns is byte-coded — both zeros, and int64 values no
// float64 tells apart, as separate entries — and one of 257, or with a NaN,
// or with no row, stays wide. The constructors' store and the RowBuilder's
// snapshot of the same rows are byte-identical and decode cell for cell.
func TestEncodingDecidedOnce(t *testing.T) {
	type tc struct {
		name string
		col  *Column
		want string
	}
	var cases []tc
	for _, n := range []int{255, 256, 257, 65535, 65536, 65537} {
		strs := make([]string, n+3)
		for i := range strs {
			strs[i] = fmt.Sprintf("v%06d", (i*7919+3)%n) // every value occurs
		}
		cases = append(cases, tc{fmt.Sprintf("categorical %d", n), NewCategoricalColumn("x", strs),
			fmt.Sprintf("codes=u%d dict=%d", 8*codeWidth(n), n)})
	}
	patterns := func(n int) []float64 { // -0, then n-1 whole numbers descending through 0
		out := []float64{math.Copysign(0, -1)}
		for k := n - 2; k >= 0; k-- {
			out = append(out, float64(k-n/2))
		}
		return out
	}
	around53 := func(n int) []int64 { // n int64 values around 2^53, descending
		var out []int64
		for k := n - 1; k >= 0; k-- {
			out = append(out, 1<<53+int64(k-n/2))
		}
		return out
	}
	cases = append(cases,
		tc{"float 256 patterns", NewFloatColumn("x", patterns(256)), "codes=u8 values=256"},
		tc{"float 257 patterns", NewFloatColumn("x", patterns(257)), "wide"},
		tc{"int 256 values", NewIntColumn("x", around53(256)), "codes=u8 values=256"},
		tc{"int 257 values", NewIntColumn("x", around53(257)), "wide"},
		tc{"float with NaN", NewFloatColumn("x", []float64{1, math.NaN(), 1}), "wide"},
		tc{"no rows", NewFloatColumn("x", nil), "wide"},
	)
	dir := t.TempDir()
	for _, c := range cases {
		if got := c.col.Encoding(); got != c.want {
			t.Fatalf("%s: stored as %s, want %s", c.name, got, c.want)
		}
		st, err := NewStore(c.col)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		direct, built := filepath.Join(dir, "direct.aware"), filepath.Join(dir, "built.aware")
		if err := st.WriteSnapshot(direct); err != nil {
			t.Fatal(err)
		}
		b, err := NewRowBuilder(st.Schema(), built)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < st.Rows(); i++ {
			if err := b.Append(cell(c.col, i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Finish(); err != nil {
			t.Fatal(err)
		}
		d1, _ := os.ReadFile(direct)
		d2, _ := os.ReadFile(built)
		if !bytes.Equal(d1, d2) {
			t.Fatalf("%s: builder output differs from WriteSnapshot", c.name)
		}
		back, err := Decode(d1)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sameStore(t, st, back)
	}
}

func TestBuilderTypeErrors(t *testing.T) {
	schema := Schema{{Name: "f", Kind: Float64}, {Name: "c", Kind: Categorical}}
	dest := filepath.Join(t.TempDir(), "x.aware")
	b, err := NewRowBuilder(schema, dest)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Abort()
	if err := b.Append(1.5); err == nil {
		t.Error("short row accepted")
	}
	if err := b.Append("not-a-float", "ok"); err == nil {
		t.Error("wrong type accepted")
	}
	if err := b.Finish(); err == nil {
		t.Error("Finish after failure succeeded")
	}
	if _, err := os.Stat(dest); !os.IsNotExist(err) {
		t.Errorf("failed builder left output file: %v", err)
	}
}

func TestKindTextRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		text, err := k.MarshalText()
		if err != nil {
			t.Fatalf("MarshalText(%v): %v", k, err)
		}
		var back Kind
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("UnmarshalText(%q): %v", text, err)
		}
		if back != k {
			t.Fatalf("%v round-tripped to %v", k, back)
		}
	}
	if _, err := Kind(99).MarshalText(); err == nil {
		t.Error("unknown kind marshalled")
	}
	if _, err := ParseKind("decimal"); err == nil {
		t.Error("unknown kind parsed")
	}
}
