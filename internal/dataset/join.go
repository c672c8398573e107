package dataset

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"aware/internal/colstore"
)

// This file is the two-table hash equi-join kernel. The smaller side (by
// exact bitmap cardinality — Selection.Count is free) builds CSR postings
// over a dense key id, and the larger side streams morsel-at-a-time over its
// View probing them, with a two-pass count/prefix-sum/write scheme so the
// output is deterministic on any pool.
//
// Output contract: one row per matching (left row, right row) pair, ordered
// by left row ascending, then right row ascending. The result table holds
// every left column under its own name followed by every right column renamed
// rightPrefix+name; name collisions (for example an empty prefix over
// overlapping schemas) fail with ErrColumnExists.
//
// When the output is the left table itself — the left side probes, its view
// selects every row, and every row matched exactly one build row, as against
// a unique-key dimension — the result holds the left table's own *Column
// values, shared like Derive shares them, with their reference-statistics
// memos, and its arena. That shape is decided on the left key's present codes
// (a dictionary's memoized tallies, or one pass over an int64 key's ids), and
// each right column is drawn once per key code, then mapped over the left
// key's codes, its code tallies summed from the left key's. Every other join
// gathers both sides.

// ErrJoinKeyType is returned when join key columns are not an equi-joinable
// pair (both categorical, both int64, or both bool).
var ErrJoinKeyType = fmt.Errorf("dataset: join keys must be categorical, int64 or bool columns of the same type")

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

// HashJoin equi-joins two filtered views into a new table. The build side is
// chosen greedily (the side with the smaller exact selection cardinality),
// its matching rows are laid out as postings per key id, and the probe side
// streams morsel-at-a-time over its selection.
func HashJoin(left, right View, leftKey, rightKey, rightPrefix string) (*Table, error) {
	lc, rc, err := joinKeyColumns(left, right, leftKey, rightKey)
	if err != nil {
		return nil, err
	}
	if err := checkJoinSpans(left, right); err != nil {
		return nil, err
	}
	if right.sel.Count() > left.sel.Count() {
		// Build on the left, probe the right: pairs come out right-major, so
		// re-sort them into the canonical (l, r) order.
		ridx, lidx, _ := hashJoinPairs(right, rc, left, lc, false)
		sortPairs(lidx, ridx)
		return materializeJoin(left.table, right.table, lidx, ridx, nil, rightPrefix)
	}
	// Build on the right, probe the left: probing in ascending left-row order
	// with ascending postings makes the output (l, r)-sorted for free.
	lidx, ridx, byKey := hashJoinPairs(left, lc, right, rc, left.full())
	return materializeJoin(left.table, right.table, lidx, ridx, byKey, rightPrefix)
}

// hashJoinPairs resolves both key columns to dense codes and joins on them:
// categorical and bool keys are their dictionary codes, the probe dictionary
// translated once to build codes; int64 keys are coded through one value → id
// map built over the build rows. When mayShare is set (the probe view selects
// every row), joinCodes decides the dimension shape on the probe codes' tallies.
func hashJoinPairs(probe View, probeCol *Column, build View, buildCol *Column, mayShare bool) (probeIdx, buildIdx []int32, byKey func(c *Column, name string) *Column) {
	var counts []int
	if buildCol.Type == Int64 {
		probeCodes, trans, buildCodes := intKeyCodes(probe, probeCol, build, buildCol)
		if mayShare {
			counts = make([]int, len(trans))
			for _, id := range probeCodes {
				counts[id]++
			}
		}
		buildKey := func(row int) int { return int(buildCodes[row]) }
		return joinCodes(probe, probeCodes, counts, trans, build, buildKey, len(trans)-1)
	}
	if mayShare {
		counts = probeCol.codeTallies()
	}
	trans := make([]int32, len(probeCol.dict))
	for code, val := range probeCol.dict {
		if bcode, ok := buildCol.codeOf[val]; ok {
			trans[code] = int32(bcode)
		} else {
			trans[code] = -1
		}
	}
	keys := len(buildCol.dict)
	switch probeCol.width {
	case 1:
		return joinCodes(probe, probeCol.codes8, counts, trans, build, buildCol.code, keys)
	case 2:
		return joinCodes(probe, probeCol.codes16, counts, trans, build, buildCol.code, keys)
	default:
		return joinCodes(probe, probeCol.codes32, counts, trans, build, buildCol.code, keys)
	}
}

// intKeyCodes codes an int64 key pair. Each distinct value among the selected
// build rows gets the next key id in order of first appearance, and every
// selected row of either side is coded by one lookup in that map; a probe
// value the build side lacks takes the extra code len(ids), which trans maps
// to −1.
func intKeyCodes(probe View, probeCol *Column, build View, buildCol *Column) (probeCodes []uint32, trans []int32, buildCodes []uint32) {
	ids := make(map[int64]uint32, build.sel.Count())
	buildCodes = make([]uint32, build.sel.n)
	build.sel.ForEach(func(row int) {
		key := buildCol.intAt(row)
		id, ok := ids[key]
		if !ok {
			id = uint32(len(ids))
			ids[key] = id
		}
		buildCodes[row] = id
	})
	absent := uint32(len(ids))
	probeCodes = make([]uint32, probe.sel.n)
	n := probe.sel.n
	probe.table.execPool().Run(chunks(n, morselRows), func(i int) {
		lo := i * morselRows
		probe.sel.forEachIn(lo, min(lo+morselRows, n), func(row int) {
			if id, ok := ids[probeCol.intAt(row)]; ok {
				probeCodes[row] = id
			} else {
				probeCodes[row] = absent
			}
		})
	})
	trans = make([]int32, absent+1)
	for id := range trans {
		trans[id] = int32(id)
	}
	trans[absent] = -1
	return probeCodes, trans, buildCodes
}

// joinCodes joins on dense codes: a build row's key id is buildKey(row) (<
// keys), a probe row's is trans[probeCodes[row]], −1 when no build row holds
// the key. It returns the matching (probe row, build row) index pairs ordered
// probe-major (probe rows ascending, build rows ascending within one).
//
// The build side becomes CSR postings: the build rows with key id k are
// rows[start[k]:start[k+1]], ascending. The probe side streams morsel-at-a-
// time: a counting pass fixes each morsel's output offset (exclusive prefix
// sum in morsel order), then every morsel writes its disjoint slice — the
// output is byte-identical on any pool.
//
// When counts holds the probe codes' tallies (the probe view selects every
// row) and every code that occurs names a key exactly one build row holds,
// output row i is probe row i: joinCodes returns no pairs, only byKey, which
// draws a build column through the probe codes.
func joinCodes[C colstore.Code](probe View, probeCodes []C, counts []int, trans []int32, build View, buildKey func(row int) int, keys int) (probeIdx, buildIdx []int32, byKey func(c *Column, name string) *Column) {
	start := make([]int32, keys+1)
	build.sel.ForEach(func(row int) { start[buildKey(row)+1]++ })
	for k := 1; k <= keys; k++ {
		start[k] += start[k-1]
	}
	rows := make([]int32, start[keys])
	next := slices.Clone(start[:keys])
	build.sel.ForEach(func(row int) {
		k := buildKey(row)
		rows[next[k]] = int32(row)
		next[k]++
	})

	p := probe.table.execPool()
	n := probe.sel.n
	m := chunks(n, morselRows)
	if m == 0 {
		return nil, nil, nil
	}
	if rowOf := dimensionRows(counts, trans, start, rows); rowOf != nil {
		return nil, nil, byKeyCode(probeCodes, rowOf, counts)
	}
	offsets := make([]int, m)
	p.Run(m, func(i int) {
		lo := i * morselRows
		c := 0
		probe.sel.forEachIn(lo, min(lo+morselRows, n), func(row int) {
			if k := trans[probeCodes[row]]; k >= 0 {
				c += int(start[k+1] - start[k])
			}
		})
		offsets[i] = c
	})
	total := 0
	for i, c := range offsets {
		offsets[i] = total
		total += c
	}
	pidx, bidx := make([]int32, total), make([]int32, total)
	p.Run(m, func(i int) {
		lo := i * morselRows
		j := offsets[i]
		probe.sel.forEachIn(lo, min(lo+morselRows, n), func(row int) {
			k := trans[probeCodes[row]]
			if k < 0 {
				return
			}
			for _, br := range rows[start[k]:start[k+1]] {
				pidx[j] = int32(row)
				bidx[j] = br
				j++
			}
		})
	})
	return pidx, bidx, nil
}

// dimensionRows returns the build row of each probe code when counts is set
// and every code that occurs translates to a key with exactly one posting;
// nil otherwise.
func dimensionRows(counts []int, trans, start, rows []int32) []int32 {
	if counts == nil {
		return nil
	}
	rowOf := make([]int32, len(trans))
	for code, n := range counts {
		if n == 0 {
			continue
		}
		k := trans[code]
		if k < 0 || start[k+1]-start[k] != 1 {
			return nil
		}
		rowOf[code] = rows[start[k]]
	}
	return rowOf
}

// sortPairs re-sorts parallel index slices into (l, r) ascending order — the
// canonical output order — after a probe-right join produced them r-major.
func sortPairs(lidx, ridx []int32) {
	packed := make([]uint64, len(lidx))
	for i := range packed {
		packed[i] = uint64(uint32(lidx[i]))<<32 | uint64(uint32(ridx[i]))
	}
	sort.Slice(packed, func(i, j int) bool { return packed[i] < packed[j] })
	for i, pk := range packed {
		lidx[i] = int32(pk >> 32)
		ridx[i] = int32(uint32(pk))
	}
}

// byKeyCode draws a dimension join's right column through the left key: its
// rows rowOf[code], as stored, read at every left row's key code. A coded
// column's tallies are the left key's counts summed per right-row code.
func byKeyCode[C colstore.Code](codes []C, rowOf []int32, counts []int) func(c *Column, name string) *Column {
	return func(c *Column, name string) *Column {
		out := gather(gatherPhys(c.phys, rowOf), codes, name)
		if c.width != 0 {
			tallies := make([]int, c.dictLen())
			for k, n := range counts {
				tallies[c.code(int(rowOf[k]))] += n
			}
			out.seedCodes(tallies)
		}
		return out
	}
}

// materializeJoin builds the join's table: left columns first under their own
// names, then right columns renamed rightPrefix+name. Given byKey, the output
// is the left table: its own columns, its arena, and right columns drawn by
// byKey. Otherwise both sides gather the matched row pairs. The result
// inherits the left table's execution pool.
func materializeJoin(lt, rt *Table, lidx, ridx []int32, byKey func(c *Column, name string) *Column, rightPrefix string) (*Table, error) {
	cols := make([]*Column, 0, len(lt.columns)+len(rt.columns))
	for _, c := range lt.columns {
		if byKey == nil {
			c = gather(c.phys, lidx, c.Name)
		}
		cols = append(cols, c)
	}
	for _, c := range rt.columns {
		if byKey != nil {
			cols = append(cols, byKey(c, rightPrefix+c.Name))
		} else {
			cols = append(cols, gather(c.phys, ridx, rightPrefix+c.Name))
		}
	}
	out, err := NewTable(cols...)
	if err != nil {
		return nil, err
	}
	out.pool.Store(lt.pool.Load())
	if byKey != nil {
		out.arena.Store(lt.arena.Load())
	}
	return out, nil
}
