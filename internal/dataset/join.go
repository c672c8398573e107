package dataset

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"

	"aware/internal/colstore"
)

// This file is the equi-join kernel. A join is a keyed lookup: every selected
// left row looks its key up among the selected right rows, and the one right
// row that holds it extends the left row with the right columns.
//
// Output contract: one row per left row whose key a selected right row holds,
// in left row order; a left row whose key no selected right row holds drops
// (an inner join). A key that a selected left row holds and two or more
// selected right rows hold fails with ErrJoinFansOut, naming the key and its
// multiplicity: the join would repeat the left row once per match, and every
// test over the joined table would count the copies as independent units. A
// repeated right key that no selected left row holds joins. The result table
// holds every left column under its own name followed by every right column
// renamed rightPrefix+name; name collisions (for example an empty prefix over
// overlapping schemas) fail with ErrColumnExists.
//
// The lookup runs on the left key's codes: a categorical or bool key's
// dictionary codes, or one id per distinct int64 value. When the left view
// selects every row and every row matches, the output is the left table
// itself: the result holds its own *Column values, shared like Derive shares
// them, with their reference-statistics memos, and its arena. Otherwise the
// matched left rows are gathered. Either way each right column is drawn once
// per key code. On a categorical or bool key a coded right column is then a
// column mapped over the output key column (over its source, when the key is
// mapped itself): its own code at each key code, nothing written per row. A
// wide right column, and every right column of an int64 key, is gathered
// through the output rows' key codes. Each coded right column arrives with
// its code tallies, summed from the key codes'.

// ErrJoinKeyType is returned when join key columns are not an equi-joinable
// pair (both categorical, both int64, or both bool).
var ErrJoinKeyType = fmt.Errorf("dataset: join keys must be categorical, int64 or bool columns of the same type")

// ErrJoinFansOut is returned when a selected left row's key is held by more
// than one selected right row.
var ErrJoinFansOut = errors.New("dataset: join fans out: a left key matches more than one right row")

// joinKeyColumns resolves and type-checks the two key columns.
func joinKeyColumns(left, right View, leftKey, rightKey string) (lc, rc *Column, err error) {
	if left.table == nil || right.table == nil {
		return nil, nil, fmt.Errorf("dataset: join requires two views")
	}
	lc, err = left.table.Column(leftKey)
	if err != nil {
		return nil, nil, err
	}
	rc, err = right.table.Column(rightKey)
	if err != nil {
		return nil, nil, err
	}
	if lc.Type != rc.Type {
		return nil, nil, fmt.Errorf("%w: %s is %s, %s is %s", ErrJoinKeyType, lc.Name, lc.Type, rc.Name, rc.Type)
	}
	switch lc.Type {
	case Categorical, Int64, Bool:
		return lc, rc, nil
	default:
		return nil, nil, fmt.Errorf("%w: %s is %s", ErrJoinKeyType, lc.Name, lc.Type)
	}
}

// checkJoinSpans guards the int32 row-index representation the join
// materializes through.
func checkJoinSpans(left, right View) error {
	if left.sel.n > math.MaxInt32 || right.sel.n > math.MaxInt32 {
		return fmt.Errorf("dataset: join sides must span fewer than 2^31 rows")
	}
	return nil
}

// HashJoin equi-joins two filtered views into a new table: each selected left
// row looks its key up among the selected right rows (see the output contract
// above). On a categorical or bool key the coded right columns are mapped
// over the output key column, and no right row is written per output row.
func HashJoin(left, right View, leftKey, rightKey, rightPrefix string) (*Table, error) {
	lc, rc, err := joinKeyColumns(left, right, leftKey, rightKey)
	if err != nil {
		return nil, err
	}
	if err := checkJoinSpans(left, right); err != nil {
		return nil, err
	}
	if lc.Type == Int64 {
		codes, matches, values := intKeyCodes(left, lc, right, rc)
		key := func(id int) string { return lc.Name + " " + strconv.FormatInt(values[id], 10) }
		return lookupJoin(left, right, nil, codes, countCodes(left, codes, len(matches)), matches, key, rightPrefix)
	}
	matches := codeMatches(lc, right, rc)
	counts := left.codeCounts(lc)
	key := func(code int) string { return lc.Name + " " + strconv.Quote(lc.dict[code]) }
	switch r := lc.rows(); r.width {
	case 1:
		return lookupJoin(left, right, lc, r.codes8, counts, matches, key, rightPrefix)
	case 2:
		return lookupJoin(left, right, lc, r.codes16, counts, matches, key, rightPrefix)
	default:
		return lookupJoin(left, right, lc, r.codes32, counts, matches, key, rightPrefix)
	}
}

// keyMatch is what one left key code finds among the selected right rows: how
// many of them hold its key, and the first.
type keyMatch struct{ n, row int32 }

// codeMatches looks every code of a categorical or bool left key up among the
// selected right rows: one pass tallies the right key's codes, and each left
// dictionary value translates to its right code once.
func codeMatches(lc *Column, right View, rc *Column) []keyMatch {
	byRight := make([]keyMatch, len(rc.dict))
	right.sel.ForEach(func(row int) {
		m := &byRight[rc.code(row)]
		if m.n == 0 {
			m.row = int32(row)
		}
		m.n++
	})
	matches := make([]keyMatch, len(lc.dict))
	for code, val := range lc.dict {
		if rcode, ok := rc.codeOf[val]; ok {
			matches[code] = byRight[rcode]
		}
	}
	return matches
}

// intKeyCodes codes an int64 key pair. Each distinct value among the selected
// right rows gets the next id in order of first appearance (values[id] is the
// value), and every selected left row is coded by one lookup in that map; a
// value no selected right row holds takes the extra id len(values), which
// matches nothing.
func intKeyCodes(left View, lc *Column, right View, rc *Column) (codes []uint32, matches []keyMatch, values []int64) {
	ids := make(map[int64]uint32, right.sel.Count())
	right.sel.ForEach(func(row int) {
		v := rc.intAt(row)
		id, ok := ids[v]
		if !ok {
			id = uint32(len(values))
			ids[v] = id
			values = append(values, v)
			matches = append(matches, keyMatch{row: int32(row)})
		}
		matches[id].n++
	})
	absent := uint32(len(values))
	matches = append(matches, keyMatch{})
	codes = make([]uint32, left.sel.n)
	n := left.sel.n
	left.table.execPool().Run(chunks(n, morselRows), func(i int) {
		lo := i * morselRows
		left.sel.forEachIn(lo, min(lo+morselRows, n), func(row int) {
			if id, ok := ids[lc.intAt(row)]; ok {
				codes[row] = id
			} else {
				codes[row] = absent
			}
		})
	})
	return codes, matches, values
}

// lookupJoin joins on the left key's codes: codes[row] is a left row's code,
// counts[code] how many selected left rows hold it, and matches[code] what it
// finds on the right. lc is the key column of a categorical or bool key,
// whose rows codes holds (its source's, when lc is mapped; counts and matches
// are over lc's own codes), and nil for an int64 key's ids. A code a left row
// holds and two or more right rows hold refuses the join, naming the key as
// key(code) does.
func lookupJoin[C colstore.Code](left, right View, lc *Column, codes []C, counts []int, matches []keyMatch, key func(code int) string, rightPrefix string) (*Table, error) {
	rowOf := make([]int32, len(matches))
	kept := make([]int, len(matches))
	matched := 0
	for code, n := range counts {
		m := matches[code]
		if n == 0 || m.n == 0 {
			continue
		}
		if m.n > 1 {
			return nil, fmt.Errorf("%w: %s is held by %d right rows", ErrJoinFansOut, key(code), m.n)
		}
		rowOf[code], kept[code] = m.row, n
		matched += n
	}
	if matched == 0 {
		rowOf = nil // no output row draws a right row, and the right side may hold none
	}
	var lidx []int32 // the gathered left rows; nil when the output is the left table
	if !left.full() || matched != left.sel.n {
		keep := kept
		if lc != nil {
			keep = throughVia(lc, kept)
		}
		lidx = make([]int32, 0, matched)
		left.sel.ForEach(func(row int) {
			if keep[codes[row]] != 0 {
				lidx = append(lidx, int32(row))
			}
		})
	}
	cols := make([]*Column, 0, len(left.table.columns)+len(right.table.columns))
	for _, c := range left.table.columns {
		if lidx != nil {
			c = gather(c, c.phys, lidx, c.Name)
		}
		cols = append(cols, c)
	}
	var byKey func(c *Column, name string) *Column
	switch {
	case lc != nil && matched > 0:
		byKey = mapByKey(cols[slices.Index(left.table.columns, lc)], rowOf, kept)
	case lidx != nil:
		byKey = byKeyCode(gatherRows(codes, lidx), rowOf, kept)
	default:
		byKey = byKeyCode(codes, rowOf, kept)
	}
	return materializeJoin(left.table, right.table, cols, lidx == nil, byKey, rightPrefix)
}

// byKeyCode draws a right column through the output rows' key codes: its rows
// rowOf[code], as stored, read at every output row's code. A coded column's
// tallies are the output codes' counts summed per right-row code.
func byKeyCode[C colstore.Code](codes []C, rowOf []int32, counts []int) func(c *Column, name string) *Column {
	return func(c *Column, name string) *Column {
		out := gather(c, gatherPhys(c.phys, rowOf), codes, name)
		if c.width != 0 {
			out.seedCodes(keyTallies(c, rowOf, counts))
		}
		return out
	}
}

// mapByKey draws a right column through the output key column key, where
// counts[k] output rows hold key code k and draw the right row rowOf[k]. A
// coded column is mapped over key, its own code at k that of the row
// rowOf[k]; a wide one is gathered through key's codes.
func mapByKey(key *Column, rowOf []int32, counts []int) func(c *Column, name string) *Column {
	return func(c *Column, name string) *Column {
		if c.width == 0 {
			p := gatherPhys(c.phys, throughVia(key, rowOf))
			switch r := key.rows(); r.width {
			case 1:
				return gather(c, p, r.codes8, name)
			case 2:
				return gather(c, p, r.codes16, name)
			default:
				return gather(c, p, r.codes32, name)
			}
		}
		via := make([]uint32, len(rowOf))
		for k, row := range rowOf {
			via[k] = uint32(c.code(int(row)))
		}
		src := key.rows() // never chain: over a mapped key, map over its source
		out := wrapDecoded(colstore.NewMappedColumn(name, c.phys, src.phys, throughVia(key, via)), c, src)
		out.seedCodes(keyTallies(c, rowOf, counts))
		return out
	}
}

// keyTallies sums counts[k], the output rows holding key code k, per code of
// the coded right column c at the row rowOf[k] each key code draws.
func keyTallies(c *Column, rowOf []int32, counts []int) []int {
	tallies := make([]int, c.dictLen())
	for k, row := range rowOf {
		tallies[c.code(int(row))] += counts[k]
	}
	return tallies
}

// materializeJoin builds the join's table: the left columns cols first,
// then the right columns renamed rightPrefix+name and drawn by byKey. When
// shared, cols are the left table's own and the result takes its arena. The
// result inherits the left table's execution pool.
func materializeJoin(lt, rt *Table, cols []*Column, shared bool, byKey func(c *Column, name string) *Column, rightPrefix string) (*Table, error) {
	for _, c := range rt.columns {
		cols = append(cols, byKey(c, rightPrefix+c.Name))
	}
	out, err := NewTable(cols...)
	if err != nil {
		return nil, err
	}
	out.pool.Store(lt.pool.Load())
	if shared {
		out.arena.Store(lt.arena.Load())
	}
	return out, nil
}
