package dataset

import (
	"errors"
	"fmt"
	"math"
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
// per key code, then mapped over the output rows' key codes, its code tallies
// summed from theirs.

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
// above).
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
		return lookupJoin(left, right, codes, countCodes(left, codes, len(matches)), matches, key, rightPrefix)
	}
	matches := codeMatches(lc, right, rc)
	counts := left.codeCounts(lc)
	key := func(code int) string { return lc.Name + " " + strconv.Quote(lc.dict[code]) }
	switch lc.width {
	case 1:
		return lookupJoin(left, right, lc.codes8, counts, matches, key, rightPrefix)
	case 2:
		return lookupJoin(left, right, lc.codes16, counts, matches, key, rightPrefix)
	default:
		return lookupJoin(left, right, lc.codes32, counts, matches, key, rightPrefix)
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
// finds on the right. A code a left row holds and two or more right rows hold
// refuses the join, naming the key as key(code) does.
func lookupJoin[C colstore.Code](left, right View, codes []C, counts []int, matches []keyMatch, key func(code int) string, rightPrefix string) (*Table, error) {
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
	if left.full() && matched == left.sel.n {
		return materializeJoin(left.table, right.table, nil, byKeyCode(codes, rowOf, kept), rightPrefix)
	}
	lidx := make([]int32, 0, matched)
	left.sel.ForEach(func(row int) {
		if kept[codes[row]] != 0 {
			lidx = append(lidx, int32(row))
		}
	})
	return materializeJoin(left.table, right.table, lidx, byKeyCode(gatherRows(codes, lidx), rowOf, kept), rightPrefix)
}

// byKeyCode draws a right column through the output rows' key codes: its rows
// rowOf[code], as stored, read at every output row's code. A coded column's
// tallies are the output codes' counts summed per right-row code.
func byKeyCode[C colstore.Code](codes []C, rowOf []int32, counts []int) func(c *Column, name string) *Column {
	return func(c *Column, name string) *Column {
		out := gather(c, gatherPhys(c.phys, rowOf), codes, name)
		if c.width != 0 {
			tallies := make([]int, c.dictLen())
			for k, row := range rowOf {
				tallies[c.code(int(row))] += counts[k]
			}
			out.seedCodes(tallies)
		}
		return out
	}
}

// materializeJoin builds the join's table: left columns first under their own
// names, then right columns renamed rightPrefix+name and drawn by byKey. With
// lidx nil the output is the left table: its own columns and its arena;
// otherwise the left columns gather the rows lidx. The result inherits the
// left table's execution pool.
func materializeJoin(lt, rt *Table, lidx []int32, byKey func(c *Column, name string) *Column, rightPrefix string) (*Table, error) {
	cols := make([]*Column, 0, len(lt.columns)+len(rt.columns))
	for _, c := range lt.columns {
		if lidx != nil {
			c = gather(c, c.phys, lidx, c.Name)
		}
		cols = append(cols, c)
	}
	for _, c := range rt.columns {
		cols = append(cols, byKey(c, rightPrefix+c.Name))
	}
	out, err := NewTable(cols...)
	if err != nil {
		return nil, err
	}
	out.pool.Store(lt.pool.Load())
	if lidx == nil {
		out.arena.Store(lt.arena.Load())
	}
	return out, nil
}
