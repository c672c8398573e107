package dataset

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"aware/internal/colstore"
)

// This file is the derived-column expression layer: a small arithmetic AST
// (column references, constants, +, -, *, /, and width-bucketing) that
// compiles against a table once and then evaluates morsel-parallel into a
// float vector. Evaluation is lazy — building an Expr does nothing; Derive /
// EvalExpr bind the columns and run the kernel — and intermediate operand
// vectors are morsel-sized scratch buffers drawn from a shared arena
// (sync.Pool), so a deep expression tree allocates no per-row intermediates
// in steady state. Division by zero follows IEEE float semantics (±Inf, NaN).
// Derive evaluates an expression whose column leaves all read one byte-coded
// column once per dictionary entry instead of once per row (overDict).

// Expr is a lazily evaluated arithmetic expression over a table's numeric
// columns, producing one float64 per row.
type Expr interface {
	// Describe returns a human-readable rendering such as "(hours * wage)".
	Describe() string
	isExpr()
}

// Col references a numeric (float64 or int64) column by name.
type Col struct{ Name string }

// Describe implements Expr.
func (e Col) Describe() string { return e.Name }
func (Col) isExpr()            {}

// Const is a numeric literal.
type Const struct{ Value float64 }

// Describe implements Expr.
func (e Const) Describe() string { return trimFloat(e.Value) }
func (Const) isExpr()            {}

// BinaryOp enumerates the arithmetic operators of Binary.
type BinaryOp string

// The four arithmetic operators.
const (
	OpAdd BinaryOp = "add"
	OpSub BinaryOp = "sub"
	OpMul BinaryOp = "mul"
	OpDiv BinaryOp = "div"
)

func (op BinaryOp) symbol() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	default:
		return string(op)
	}
}

// Binary applies an arithmetic operator to two sub-expressions.
type Binary struct {
	Op   BinaryOp
	L, R Expr
}

// Describe implements Expr.
func (e Binary) Describe() string {
	return fmt.Sprintf("(%s %s %s)", e.L.Describe(), e.Op.symbol(), e.R.Describe())
}
func (Binary) isExpr() {}

// Bucket maps its argument to the lower edge of its width-sized bucket:
// floor(v/width)*width. Bucketed derived columns turn continuous attributes
// into group-by-able ones (ages into decades, incomes into 10k bands).
type Bucket struct {
	Arg   Expr
	Width float64
}

// Describe implements Expr.
func (e Bucket) Describe() string {
	return fmt.Sprintf("bucket(%s, %s)", e.Arg.Describe(), trimFloat(e.Width))
}
func (Bucket) isExpr() {}

// --- compilation and evaluation ---

// exprProg is one compiled expression node: columns resolved to their
// physical vectors, ready for morsel evaluation.
type exprProg struct {
	op     string    // "colf", "coli", "code", "const", "add", "sub", "mul", "div", "bucket"
	floats []float64 // "colf": the rows; "code": the value of each code
	ints   []int64
	codes  []uint8
	col    *Column // "code": the column read
	val    float64 // Const value or Bucket width
	l, r   *exprProg
}

// compileExpr validates the expression against the table — every referenced
// column must exist and be numeric, every operator known, bucket widths
// positive and finite — and binds column vectors.
func compileExpr(t *Table, e Expr) (*exprProg, error) {
	switch q := e.(type) {
	case Col:
		c, err := t.Column(q.Name)
		if err != nil {
			return nil, err
		}
		switch {
		case c.Type != Float64 && c.Type != Int64:
			return nil, fmt.Errorf("%w: %s is %s, not numeric", ErrTypeMismatch, c.Name, c.Type)
		case c.width != 0:
			return &exprProg{op: "code", floats: c.values, codes: c.codes8, col: c}, nil
		case c.Type == Float64:
			return &exprProg{op: "colf", floats: c.floats}, nil
		default:
			return &exprProg{op: "coli", ints: c.ints}, nil
		}
	case Const:
		if math.IsNaN(q.Value) || math.IsInf(q.Value, 0) {
			return nil, fmt.Errorf("dataset: expression constant must be finite, got %v", q.Value)
		}
		return &exprProg{op: "const", val: q.Value}, nil
	case Binary:
		switch q.Op {
		case OpAdd, OpSub, OpMul, OpDiv:
		default:
			return nil, fmt.Errorf("dataset: unknown expression operator %q", q.Op)
		}
		if q.L == nil || q.R == nil {
			return nil, fmt.Errorf("dataset: %s expression requires two operands", q.Op)
		}
		l, err := compileExpr(t, q.L)
		if err != nil {
			return nil, err
		}
		r, err := compileExpr(t, q.R)
		if err != nil {
			return nil, err
		}
		return &exprProg{op: string(q.Op), l: l, r: r}, nil
	case Bucket:
		if q.Arg == nil {
			return nil, fmt.Errorf("dataset: bucket expression requires an argument")
		}
		if !(q.Width > 0) || math.IsInf(q.Width, 0) {
			return nil, fmt.Errorf("dataset: bucket width must be positive and finite, got %v", q.Width)
		}
		arg, err := compileExpr(t, q.Arg)
		if err != nil {
			return nil, err
		}
		return &exprProg{op: "bucket", val: q.Width, l: arg}, nil
	case nil:
		return nil, fmt.Errorf("dataset: nil expression")
	default:
		return nil, fmt.Errorf("dataset: unknown expression type %T", e)
	}
}

// exprScratch recycles the morsel-sized operand buffers the evaluator uses
// for binary right-hand sides — the expression arena. Buffers are shared
// process-wide across tables and pools; a morsel in flight holds at most its
// tree depth in buffers.
var exprScratch = sync.Pool{
	New: func() any {
		buf := make([]float64, morselRows)
		return &buf
	},
}

// evalInto evaluates the program for rows [lo, lo+len(dst)) into dst.
func (pg *exprProg) evalInto(dst []float64, lo int) {
	switch pg.op {
	case "colf":
		copy(dst, pg.floats[lo:lo+len(dst)])
	case "coli":
		src := pg.ints[lo : lo+len(dst)]
		for i, v := range src {
			dst[i] = float64(v)
		}
	case "code":
		src := pg.codes[lo : lo+len(dst)]
		for i, k := range src {
			dst[i] = pg.floats[k]
		}
	case "const":
		for i := range dst {
			dst[i] = pg.val
		}
	case "bucket":
		pg.l.evalInto(dst, lo)
		w := pg.val
		for i, v := range dst {
			dst[i] = math.Floor(v/w) * w
		}
	default: // add, sub, mul, div
		pg.l.evalInto(dst, lo)
		scratch := exprScratch.Get().(*[]float64)
		rhs := (*scratch)[:len(dst)]
		pg.r.evalInto(rhs, lo)
		switch pg.op {
		case "add":
			for i := range dst {
				dst[i] += rhs[i]
			}
		case "sub":
			for i := range dst {
				dst[i] -= rhs[i]
			}
		case "mul":
			for i := range dst {
				dst[i] *= rhs[i]
			}
		case "div":
			for i := range dst {
				dst[i] /= rhs[i]
			}
		}
		exprScratch.Put(scratch)
	}
}

// EvalExpr evaluates the expression over every row of the table into a fresh
// float vector, morsel-parallel on the table's pool. The output is
// bit-identical whichever pool executes it (each morsel writes a disjoint
// slice of the output).
func (t *Table) EvalExpr(e Expr) ([]float64, error) {
	pg, err := compileExpr(t, e)
	if err != nil {
		return nil, err
	}
	return t.evalRows(pg), nil
}

// evalRows evaluates a compiled program over every row.
func (t *Table) evalRows(pg *exprProg) []float64 {
	out := make([]float64, t.rows)
	p := t.execPool()
	m := chunks(t.rows, morselRows)
	if m <= 1 || p.workers == 1 {
		p.cutoffHits.Add(1)
		// Still morsel-at-a-time: evalInto's scratch vectors are sized to one
		// morsel, and the chunked walk keeps the working set in cache.
		for i := 0; i < m; i++ {
			lo := i * morselRows
			pg.evalInto(out[lo:min(lo+morselRows, t.rows)], lo)
		}
		return out
	}
	p.Run(m, func(i int) {
		lo := i * morselRows
		pg.evalInto(out[lo:min(lo+morselRows, t.rows)], lo)
	})
	return out
}

// overDict rebinds every column leaf to the values of the one coded column
// they read (src), so entry k of the evaluation is code k's result; nil when
// a leaf reads a wide column or a second one.
func (pg *exprProg) overDict(src **Column) *exprProg {
	out := *pg
	switch {
	case pg.op == "code" && (*src == nil || *src == pg.col):
		*src = pg.col
		return &exprProg{op: "colf", floats: pg.floats}
	case pg.op == "code" || pg.op == "colf" || pg.op == "coli":
		return nil
	case pg.l != nil:
		if out.l = pg.l.overDict(src); out.l == nil {
			return nil
		}
	}
	if pg.r != nil {
		if out.r = pg.r.overDict(src); out.r == nil {
			return nil
		}
	}
	return &out
}

// Derive returns a new table extended with a Float64 column named name,
// computed by evaluating the expression over every row. Existing columns are
// shared, not copied, and the result inherits the table's pool and arena. An
// expression of one coded column runs once per dictionary entry, through the
// same evalInto, and is stored from those results and the code tallies,
// which also give the new column's own: no reader re-tallies its rows.
func (t *Table) Derive(name string, e Expr) (*Table, error) {
	pg, err := compileExpr(t, e)
	if err != nil {
		return nil, err
	}
	var src *Column
	if dict := pg.overDict(&src); dict != nil && src != nil {
		perCode := make([]float64, len(src.values))
		dict.evalInto(perCode, 0)
		p, counts := colstore.NewMappedFloatColumn(name, perCode, src.codes8, src.codeTallies())
		c := wrapColumn(p)
		c.seedCodes(counts)
		return t.WithColumn(c)
	}
	return t.WithColumn(NewFloatColumn(name, t.evalRows(pg)))
}

// --- JSON wire format ---

// Expression JSON mirrors the predicate codec: a tagged union, one object
// shape per node type:
//
//	{"expr": "col", "column": "age"}
//	{"expr": "const", "value": 10}
//	{"expr": "add", "left": {...}, "right": {...}}   (also sub/mul/div)
//	{"expr": "bucket", "arg": {...}, "width": 10}

// exprJSON is the tagged union every Expr encodes to.
type exprJSON struct {
	Expr   string    `json:"expr"`
	Column string    `json:"column,omitempty"`
	Value  *float64  `json:"value,omitempty"`
	Left   *exprJSON `json:"left,omitempty"`
	Right  *exprJSON `json:"right,omitempty"`
	Arg    *exprJSON `json:"arg,omitempty"`
	Width  *float64  `json:"width,omitempty"`
}

// encodeExpr converts an expression to its wire representation.
func encodeExpr(e Expr) (*exprJSON, error) {
	switch q := e.(type) {
	case Col:
		if q.Name == "" {
			return nil, fmt.Errorf("dataset: col expression requires a column name")
		}
		return &exprJSON{Expr: "col", Column: q.Name}, nil
	case Const:
		v := q.Value
		return &exprJSON{Expr: "const", Value: &v}, nil
	case Binary:
		switch q.Op {
		case OpAdd, OpSub, OpMul, OpDiv:
		default:
			return nil, fmt.Errorf("dataset: cannot encode expression operator %q", q.Op)
		}
		if q.L == nil || q.R == nil {
			return nil, fmt.Errorf("dataset: cannot encode %s expression with nil operand", q.Op)
		}
		l, err := encodeExpr(q.L)
		if err != nil {
			return nil, err
		}
		r, err := encodeExpr(q.R)
		if err != nil {
			return nil, err
		}
		return &exprJSON{Expr: string(q.Op), Left: l, Right: r}, nil
	case Bucket:
		if q.Arg == nil {
			return nil, fmt.Errorf("dataset: cannot encode bucket expression with nil argument")
		}
		arg, err := encodeExpr(q.Arg)
		if err != nil {
			return nil, err
		}
		w := q.Width
		return &exprJSON{Expr: "bucket", Arg: arg, Width: &w}, nil
	case nil:
		return nil, fmt.Errorf("dataset: cannot encode nil expression")
	default:
		return nil, fmt.Errorf("dataset: cannot encode expression type %T", e)
	}
}

// decodeExpr converts a wire representation back into an expression.
func decodeExpr(ej *exprJSON) (Expr, error) {
	if ej == nil {
		return nil, fmt.Errorf("dataset: missing expression object")
	}
	switch ej.Expr {
	case "col":
		if ej.Column == "" {
			return nil, fmt.Errorf("dataset: col expression requires a column")
		}
		return Col{Name: ej.Column}, nil
	case "const":
		if ej.Value == nil {
			return nil, fmt.Errorf("dataset: const expression requires a value")
		}
		return Const{Value: *ej.Value}, nil
	case "add", "sub", "mul", "div":
		l, err := decodeExpr(ej.Left)
		if err != nil {
			return nil, fmt.Errorf("dataset: %s expression left operand: %w", ej.Expr, err)
		}
		r, err := decodeExpr(ej.Right)
		if err != nil {
			return nil, fmt.Errorf("dataset: %s expression right operand: %w", ej.Expr, err)
		}
		return Binary{Op: BinaryOp(ej.Expr), L: l, R: r}, nil
	case "bucket":
		arg, err := decodeExpr(ej.Arg)
		if err != nil {
			return nil, fmt.Errorf("dataset: bucket expression argument: %w", err)
		}
		if ej.Width == nil {
			return nil, fmt.Errorf("dataset: bucket expression requires a width")
		}
		return Bucket{Arg: arg, Width: *ej.Width}, nil
	case "":
		return nil, fmt.Errorf("dataset: expression object is missing a type")
	default:
		return nil, fmt.Errorf("dataset: unknown expression type %q", ej.Expr)
	}
}

// MarshalExpr serializes an expression to its JSON wire format.
func MarshalExpr(e Expr) ([]byte, error) {
	enc, err := encodeExpr(e)
	if err != nil {
		return nil, err
	}
	return json.Marshal(enc)
}

// UnmarshalExpr parses the JSON wire format into an expression.
func UnmarshalExpr(data []byte) (Expr, error) {
	var ej exprJSON
	if err := json.Unmarshal(data, &ej); err != nil {
		return nil, fmt.Errorf("dataset: parsing expression JSON: %w", err)
	}
	return decodeExpr(&ej)
}
