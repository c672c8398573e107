package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// This file tests the derived-column expression engine: vectorized evaluation
// against a row-at-a-time reference, pool parity (including the sequential
// cutoff over multi-morsel tables), Derive's table semantics, and the JSON
// codec.

// refEvalExpr is the row-at-a-time reference evaluator. It applies the same
// IEEE operations in the same order as the compiled program, so agreement is
// exact, not approximate.
func refEvalExpr(t *testing.T, tab *Table, e Expr, row int) float64 {
	t.Helper()
	switch q := e.(type) {
	case Col:
		c, err := tab.Column(q.Name)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		v, err := floatCell(c, row)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		return v
	case Const:
		return q.Value
	case Binary:
		l, r := refEvalExpr(t, tab, q.L, row), refEvalExpr(t, tab, q.R, row)
		switch q.Op {
		case OpAdd:
			return l + r
		case OpSub:
			return l - r
		case OpMul:
			return l * r
		default:
			return l / r
		}
	case Bucket:
		v := refEvalExpr(t, tab, q.Arg, row)
		return math.Floor(v/q.Width) * q.Width
	default:
		t.Fatalf("reference: unknown expression %T", e)
		return 0
	}
}

// randomExpr draws an expression tree over the numeric columns of
// randomTable. Divisions and zero-width buckets are allowed: Inf and NaN must
// round-trip through the vectorized path identically too.
func randomExpr(rng *rand.Rand, depth int) Expr {
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(3) {
		case 0:
			return Col{Name: "score"}
		case 1:
			return Col{Name: "level"}
		default:
			return Const{Value: math.Round(rng.NormFloat64()*100) / 10}
		}
	}
	if rng.Intn(5) == 0 {
		return Bucket{Arg: randomExpr(rng, depth-1), Width: float64(1 + rng.Intn(10))}
	}
	op := []BinaryOp{OpAdd, OpSub, OpMul, OpDiv}[rng.Intn(4)]
	return Binary{Op: op, L: randomExpr(rng, depth-1), R: randomExpr(rng, depth-1)}
}

// sameFloat compares bit patterns so NaN == NaN and -0 != 0.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestEvalExprMatchesReferenceRandomized is the derived-column property test:
// random expression trees over random tables must evaluate, element for
// element, exactly as the row-at-a-time reference.
func TestEvalExprMatchesReferenceRandomized(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := randomTable(rng)
		e := randomExpr(rng, 3)
		got, err := tab.EvalExpr(e)
		if err != nil {
			t.Fatalf("seed %d: EvalExpr(%s): %v", seed, e.Describe(), err)
		}
		if len(got) != tab.NumRows() {
			t.Fatalf("seed %d: %d values for %d rows", seed, len(got), tab.NumRows())
		}
		for row := range got {
			want := refEvalExpr(t, tab, e, row)
			if !sameFloat(got[row], want) {
				t.Fatalf("seed %d: %s at row %d: got %v, want %v", seed, e.Describe(), row, got[row], want)
			}
		}
	}
}

// TestEvalExprPoolParity evaluates one expression over a table spanning
// several morsels on 1-, 2- and 8-worker pools: identical vectors everywhere.
// The 1-worker case over a multi-morsel table is the regression test for the
// sequential cutoff path, which must walk morsel-at-a-time rather than hand
// the whole table to one morsel-sized scratch buffer.
func TestEvalExprPoolParity(t *testing.T) {
	rows := 3*morselRows + 17
	vals := make([]float64, rows)
	rng := rand.New(rand.NewSource(3))
	for i := range vals {
		vals[i] = rng.NormFloat64() * 50
	}
	tab, err := NewTable(NewFloatColumn("v", vals))
	if err != nil {
		t.Fatal(err)
	}
	e := Bucket{
		Arg:   Binary{Op: OpAdd, L: Binary{Op: OpMul, L: Col{Name: "v"}, R: Const{Value: 52}}, R: Const{Value: 7}},
		Width: 25,
	}
	want, err := tab.EvalExpr(e) // default pool
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		p := NewPool(workers)
		tab.SetPool(p)
		got, err := tab.EvalExpr(e)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		for i := range got {
			if !sameFloat(got[i], want[i]) {
				t.Fatalf("%d workers: row %d: %v vs %v", workers, i, got[i], want[i])
			}
		}
		p.Close()
	}
}

// TestDeriveSemantics pins Derive's table contract: a fresh table with the
// new Float64 column appended, the source table untouched, errors on unknown
// columns, non-numeric columns, and duplicate names.
func TestDeriveSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tab := randomTable(rng)
	cols := tab.NumColumns()
	derived, err := tab.Derive("twice", Binary{Op: OpMul, L: Col{Name: "score"}, R: Const{Value: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumColumns() != cols {
		t.Fatalf("Derive mutated the source table: %d columns, had %d", tab.NumColumns(), cols)
	}
	if derived.NumColumns() != cols+1 || derived.NumRows() != tab.NumRows() {
		t.Fatalf("derived table is %dx%d, want %dx%d", derived.NumRows(), derived.NumColumns(), tab.NumRows(), cols+1)
	}
	twice, err := derived.Floats("twice")
	if err != nil {
		t.Fatal(err)
	}
	score, err := tab.Floats("score")
	if err != nil {
		t.Fatal(err)
	}
	for i := range twice {
		if !sameFloat(twice[i], score[i]*2) {
			t.Fatalf("row %d: %v, want %v", i, twice[i], score[i]*2)
		}
	}

	if _, err := tab.Derive("x", Col{Name: "no_such_column"}); err == nil {
		t.Error("unknown column: want error")
	}
	if _, err := tab.Derive("x", Col{Name: "color"}); err == nil {
		t.Error("categorical operand: want error")
	}
	if _, err := tab.Derive("score", Const{Value: 1}); err == nil {
		t.Error("duplicate column name: want error")
	}
}

// TestExprJSONRoundTrip marshals and re-marshals every node kind (and a
// nested tree), requiring identical wire forms and identical Describe text.
func TestExprJSONRoundTrip(t *testing.T) {
	exprs := []Expr{
		Col{Name: "age"},
		Const{Value: -2.5},
		Binary{Op: OpAdd, L: Col{Name: "a"}, R: Const{Value: 1}},
		Binary{Op: OpSub, L: Col{Name: "a"}, R: Col{Name: "b"}},
		Binary{Op: OpMul, L: Const{Value: 52}, R: Col{Name: "hours"}},
		Binary{Op: OpDiv, L: Col{Name: "pay"}, R: Col{Name: "hours"}},
		Bucket{Arg: Col{Name: "age"}, Width: 10},
		Bucket{
			Arg:   Binary{Op: OpMul, L: Col{Name: "hours"}, R: Const{Value: 52}},
			Width: 250,
		},
	}
	for _, e := range exprs {
		t.Run(e.Describe(), func(t *testing.T) {
			first, err := MarshalExpr(e)
			if err != nil {
				t.Fatalf("MarshalExpr: %v", err)
			}
			decoded, err := UnmarshalExpr(first)
			if err != nil {
				t.Fatalf("UnmarshalExpr(%s): %v", first, err)
			}
			second, err := MarshalExpr(decoded)
			if err != nil {
				t.Fatalf("re-MarshalExpr: %v", err)
			}
			if string(first) != string(second) {
				t.Errorf("round trip not lossless:\n first: %s\nsecond: %s", first, second)
			}
			if decoded.Describe() != e.Describe() {
				t.Errorf("Describe changed: %q -> %q", e.Describe(), decoded.Describe())
			}
		})
	}
}

// TestExprJSONStrictness rejects malformed wire forms and unencodable trees.
func TestExprJSONStrictness(t *testing.T) {
	bad := []struct {
		name string
		in   string
		want string
	}{
		{"missing type", `{}`, "missing a type"},
		{"unknown type", `{"expr": "mod", "left": {"expr": "col", "column": "a"}}`, "unknown expression"},
		{"col without column", `{"expr": "col"}`, "requires a column"},
		{"const without value", `{"expr": "const"}`, "requires a value"},
		{"add without right", `{"expr": "add", "left": {"expr": "const", "value": 1}}`, "right operand"},
		{"bucket without width", `{"expr": "bucket", "arg": {"expr": "col", "column": "a"}}`, "requires a width"},
		{"not json", `{"expr": `, "parsing expression JSON"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := UnmarshalExpr([]byte(tc.in)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("UnmarshalExpr(%s) = %v, want error containing %q", tc.in, err, tc.want)
			}
		})
	}
	if _, err := MarshalExpr(nil); err == nil {
		t.Error("MarshalExpr(nil): want error")
	}
	if _, err := MarshalExpr(Binary{Op: "mod", L: Col{Name: "a"}, R: Col{Name: "b"}}); err == nil {
		t.Error("MarshalExpr of unknown operator: want error")
	}
	if _, err := MarshalExpr(Binary{Op: OpAdd, L: Col{Name: "a"}}); err == nil {
		t.Error("MarshalExpr with nil operand: want error")
	}
}

// derivesOverDict reports whether Derive evaluates e over tab once per
// dictionary entry rather than once per row.
func derivesOverDict(t *testing.T, tab *Table, e Expr) bool {
	t.Helper()
	pg, err := compileExpr(tab, e)
	if err != nil {
		t.Fatalf("compiling %s: %v", e.Describe(), err)
	}
	var src *Column
	return pg.overDict(&src) != nil && src != nil
}

// requireDerivedLikeRows derives e over tab and requires the stored column to
// be what NewFloatColumn stores from EvalExpr's rows, bit for bit: the width,
// the value dictionary's bit patterns and the codes — a mapped column's
// written out, as a snapshot stores them — or the wide rows.
func requireDerivedLikeRows(t *testing.T, label string, tab *Table, e Expr) *Column {
	t.Helper()
	derived, err := tab.Derive("d", e)
	if err != nil {
		t.Fatalf("%s: Derive(%s): %v", label, e.Describe(), err)
	}
	rows, err := tab.EvalExpr(e)
	if err != nil {
		t.Fatalf("%s: EvalExpr(%s): %v", label, e.Describe(), err)
	}
	got, _ := derived.Column("d")
	g, w := got.phys.Materialize(), NewFloatColumn("d", rows).phys
	if g.Width != w.Width || !slices.Equal(g.Values, w.Values) || !slices.Equal(g.Codes8, w.Codes8) || len(g.Floats) != len(w.Floats) {
		t.Fatalf("%s: %s stored as %s %x, the rows as %s %x", label, e.Describe(), g.Encoding(), g.Values, w.Encoding(), w.Values)
	}
	for i := range g.Floats {
		if !sameFloat(g.Floats[i], w.Floats[i]) {
			t.Fatalf("%s: %s row %d: %v, the rows hold %v", label, e.Describe(), i, g.Floats[i], w.Floats[i])
		}
	}
	return got
}

// TestDeriveOverDictionaryMatchesRowPath is the dictionary path's property
// test. Over byte-coded float and int sources — one holding both zeros and
// +Inf, a Select-gathered one whose shared dictionary lists values none of its
// rows holds, and one with no row — on pools of 1, 2 and 8 workers, every
// expression whose column leaves read one coded column is evaluated per
// dictionary entry and stored exactly as the evaluated rows would be:
// merging buckets, −0, ±Inf, and NaN, which makes the column wide only when
// a row holds it.
func TestDeriveOverDictionaryMatchesRowPath(t *testing.T) {
	rng := rand.New(rand.NewSource(3100))
	rows := 2*morselRows + 5
	floatPool := []float64{-3.5, negZero, 0, 0.25, 1, 2.5, 7, 19, 1e300, math.Inf(1)}
	intPool := []int64{-7, 0, 3, 40, 1 << 53, 1<<53 + 1}
	floats, ints := make([]float64, rows), make([]int64, rows)
	for i := range floats {
		floats[i], ints[i] = floatPool[rng.Intn(len(floatPool))], intPool[rng.Intn(len(intPool))]
	}
	full, err := NewTable(NewFloatColumn("x", floats), NewIntColumn("n", ints))
	if err != nil {
		t.Fatal(err)
	}
	var keep []int
	for i, v := range floats {
		if v != 0 && v != 7 && !math.IsInf(v, 0) && ints[i] != 3 {
			keep = append(keep, i)
		}
	}
	gathered, err := full.Select(keep)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := full.Select(nil)
	if err != nil {
		t.Fatal(err)
	}
	x, n := Col{Name: "x"}, Col{Name: "n"}
	exprs := []Expr{
		x, n,
		Bucket{Arg: x, Width: 10},                                               // merges values
		Bucket{Arg: n, Width: 1 << 20},                                          // merges 0, 3 and 40, and 2^53 with 2^53+1
		Binary{Op: OpMul, L: x, R: Const{Value: -1}},                            // −0 from +0 and +0 from −0
		Binary{Op: OpDiv, L: x, R: Const{Value: 0}},                             // ±Inf, and NaN at a zero
		Binary{Op: OpDiv, L: x, R: x},                                           // NaN at a zero and at +Inf
		Binary{Op: OpDiv, L: n, R: Binary{Op: OpSub, L: n, R: Const{Value: 3}}}, // +Inf at 3, −0 at 0
		Binary{Op: OpAdd, L: Binary{Op: OpMul, L: x, R: x}, R: x},               // three leaves, one column
		Bucket{Arg: Binary{Op: OpSub, L: Binary{Op: OpMul, L: n, R: n}, R: n}, Width: 3},
	}
	pools := []*Pool{NewPool(1), NewPool(2), NewPool(8)}
	for _, p := range pools {
		defer p.Close()
	}
	for _, src := range []struct {
		name string
		tab  *Table
	}{{"both zeros", full}, {"gathered", gathered}, {"no rows", empty}} {
		for _, e := range exprs {
			if !derivesOverDict(t, src.tab, e) {
				t.Fatalf("%s: %s takes the row path", src.name, e.Describe())
			}
			for _, p := range pools {
				src.tab.SetPool(p)
				requireDerivedLikeRows(t, fmt.Sprintf("%s, %d workers", src.name, p.workers), src.tab, e)
			}
		}
	}
	selfRatio := Binary{Op: OpDiv, L: x, R: x}
	if got := requireDerivedLikeRows(t, "both zeros", full, selfRatio); got.width != 0 {
		t.Errorf("x/x over rows holding 0 is stored as %s, want wide", got.phys.Encoding())
	}
	if got := requireDerivedLikeRows(t, "gathered", gathered, selfRatio); got.width == 0 {
		t.Errorf("x/x over rows holding no 0 and no Inf is wide: a NaN of an absent entry leaked")
	}
}

// TestDeriveRowPathShapes: an expression over two columns, over a wide
// column, or with no column at all is evaluated per row, and stored as before.
func TestDeriveRowPathShapes(t *testing.T) {
	rows := 600
	xs, ys, ws := make([]float64, rows), make([]float64, rows), make([]float64, rows)
	for i := range xs {
		xs[i], ys[i], ws[i] = float64(i%7), float64(i%5)-2, float64(i)/3
	}
	tab, err := NewTable(NewFloatColumn("x", xs), NewFloatColumn("y", ys), NewFloatColumn("w", ws))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Expr{
		Binary{Op: OpAdd, L: Col{Name: "x"}, R: Col{Name: "y"}},
		Binary{Op: OpMul, L: Col{Name: "x"}, R: Bucket{Arg: Col{Name: "y"}, Width: 2}},
		Bucket{Arg: Col{Name: "w"}, Width: 10},
		Binary{Op: OpSub, L: Col{Name: "x"}, R: Col{Name: "w"}},
		Const{Value: 3},
		Bucket{Arg: Binary{Op: OpMul, L: Const{Value: 2}, R: Const{Value: 5}}, Width: 4},
	} {
		if derivesOverDict(t, tab, e) {
			t.Fatalf("%s takes the dictionary path", e.Describe())
		}
		requireDerivedLikeRows(t, "row path", tab, e)
	}
}

// fuzzExpr decodes an expression over the column "x" from fuzz bytes, run as
// a stack program: by byte mod 7, push x; push the next byte as a constant in
// quarter steps; replace the top two by their sum, difference, product or
// quotient; bucket the top by the next byte as a width in half steps. An
// operator short of operands pushes x. The top of the stack is the
// expression, x when it is empty.
func fuzzExpr(prog []byte) Expr {
	var stack []Expr
	next := func(i *int) byte {
		*i++
		if *i < len(prog) {
			return prog[*i]
		}
		return 1
	}
	ops := []BinaryOp{OpAdd, OpSub, OpMul, OpDiv}
	for i := 0; i < len(prog) && i < 64; i++ {
		switch op := prog[i] % 7; {
		case op == 1:
			stack = append(stack, Const{Value: float64(int8(next(&i))) / 4})
		case op >= 2 && op <= 5 && len(stack) >= 2:
			l, r := stack[len(stack)-2], stack[len(stack)-1]
			stack = append(stack[:len(stack)-2], Binary{Op: ops[op-2], L: l, R: r})
		case op == 6 && len(stack) >= 1:
			stack[len(stack)-1] = Bucket{Arg: stack[len(stack)-1], Width: float64(1+next(&i)%32) / 2}
		default:
			stack = append(stack, Col{Name: "x"})
		}
	}
	if len(stack) == 0 {
		return Col{Name: "x"}
	}
	return stack[len(stack)-1]
}

// FuzzDeriveCodes is the CI fuzz smoke target of the dictionary path: a float
// or int column drawn from the fuzz bytes (fuzzColumn), optionally gathered
// without the rows of one byte value so its dictionary lists a value no row
// holds, and an expression decoded from bytes (fuzzExpr). Derive must store
// what NewFloatColumn stores from EvalExpr's rows, bit for bit.
func FuzzDeriveCodes(f *testing.F) {
	f.Add([]byte{}, []byte{0}, false, byte(0))
	f.Add([]byte{5, 6, 7, 8}, []byte{0, 1, 40, 3}, false, byte(0))                  // x - 10
	f.Add([]byte{5, 6, 7, 8, 9, 10}, []byte{0, 0, 5}, false, byte(5))               // x / x, +0 gathered out
	f.Add([]byte{5, 6, 9, 10, 11, 12}, []byte{0, 1, 0, 5}, false, byte(0))          // x / 0
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6}, []byte{0, 0, 4, 0, 2, 6, 20}, true, byte(3)) // bucket(x*x + x)
	f.Add([]byte{1, 2, 3, 4, 200, 201, 202}, []byte{0, 1, 252, 4, 6, 7}, false, byte(200))
	long := make([]byte, 3*64+5)
	for i := range long {
		long[i] = byte(20 + i%37)
	}
	f.Add(long, []byte{0, 6, 19}, false, byte(21))
	f.Fuzz(func(t *testing.T, data, prog []byte, asInts bool, drop byte) {
		tab, err := NewTable(fuzzColumn(data, asInts, 1))
		if err != nil {
			t.Fatal(err)
		}
		if drop != 0 {
			var keep []int
			for i, b := range data {
				if b != drop {
					keep = append(keep, i)
				}
			}
			if tab, err = tab.Select(keep); err != nil {
				t.Fatal(err)
			}
		}
		requireDerivedLikeRows(t, fmt.Sprintf("%x over %x without %d", prog, data, drop), tab, fuzzExpr(prog))
	})
}
