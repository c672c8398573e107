package dataset

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

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
// memos; only the right columns are gathered. Every other join gathers both
// sides.

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
		return materializeJoin(left.table, right.table, lidx, ridx, false, rightPrefix)
	}
	// Build on the right, probe the left: probing in ascending left-row order
	// with ascending postings makes the output (l, r)-sorted for free.
	lidx, ridx, shared := hashJoinPairs(left, lc, right, rc, left.full())
	return materializeJoin(left.table, right.table, lidx, ridx, shared, rightPrefix)
}

// hashJoinPairs resolves both key columns to dense codes and joins on them:
// categorical keys are dictionary codes, the probe dictionary translated once
// to build codes; bool keys are their own 0/1 bytes; int64 keys are coded
// through one value → id map built over the build rows.
func hashJoinPairs(probe View, probeCol *Column, build View, buildCol *Column, mayShare bool) (probeIdx, buildIdx []int32, shared bool) {
	switch buildCol.Type {
	case Categorical:
		trans := make([]int32, len(probeCol.dict))
		for code, val := range probeCol.dict {
			if bcode, ok := buildCol.codeOf[val]; ok {
				trans[code] = int32(bcode)
			} else {
				trans[code] = -1
			}
		}
		return joinCodes(probe, probeCol.codes, trans, build, buildCol.codes, len(buildCol.dict), mayShare)
	case Bool:
		return joinCodes(probe, colstore.BoolsAsBytes(probeCol.bools), []int32{0, 1},
			build, colstore.BoolsAsBytes(buildCol.bools), 2, mayShare)
	default: // Int64, guarded by joinKeyColumns
		probeCodes, trans, buildCodes := intKeyCodes(probe, probeCol, build, buildCol)
		return joinCodes(probe, probeCodes, trans, build, buildCodes, len(trans)-1, mayShare)
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
		id, ok := ids[buildCol.ints[row]]
		if !ok {
			id = uint32(len(ids))
			ids[buildCol.ints[row]] = id
		}
		buildCodes[row] = id
	})
	absent := uint32(len(ids))
	probeCodes = make([]uint32, probe.sel.n)
	n := probe.sel.n
	probe.table.execPool().Run(chunks(n, morselRows), func(i int) {
		lo := i * morselRows
		probe.sel.forEachIn(lo, min(lo+morselRows, n), func(row int) {
			if id, ok := ids[probeCol.ints[row]]; ok {
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

// joinCodes joins on dense codes: a build row's key id is buildCodes[row] (<
// keys), a probe row's is trans[probeCodes[row]], −1 when no build row holds
// the key. It returns the matching (probe row, build row) index pairs ordered
// probe-major (probe rows ascending, build rows ascending within one).
//
// The build side becomes CSR postings: the build rows with key id k are
// rows[start[k]:start[k+1]], ascending. The probe side streams morsel-at-a-
// time: a counting pass fixes each morsel's output offset (exclusive prefix
// sum in morsel order), then every morsel writes its disjoint slice — the
// output is byte-identical on any pool. When mayShare is set (the probe view
// selects every row) and the counting pass saw every probe row match exactly
// one build row, output row i is probe row i: joinCodes returns shared and no
// probe indices, and writes only the build row of each.
func joinCodes[C uint8 | uint32](probe View, probeCodes []C, trans []int32, build View, buildCodes []C, keys int, mayShare bool) (probeIdx, buildIdx []int32, shared bool) {
	start := make([]int32, keys+1)
	build.sel.ForEach(func(row int) { start[int(buildCodes[row])+1]++ })
	for k := 1; k <= keys; k++ {
		start[k] += start[k-1]
	}
	rows := make([]int32, start[keys])
	next := slices.Clone(start[:keys])
	build.sel.ForEach(func(row int) {
		k := buildCodes[row]
		rows[next[k]] = int32(row)
		next[k]++
	})

	p := probe.table.execPool()
	n := probe.sel.n
	m := chunks(n, morselRows)
	if m == 0 {
		return nil, nil, false
	}
	offsets := make([]int, m)
	var notOneEach atomic.Bool
	p.Run(m, func(i int) {
		lo := i * morselRows
		c, oneEach := 0, true
		probe.sel.forEachIn(lo, min(lo+morselRows, n), func(row int) {
			k := trans[probeCodes[row]]
			if k < 0 {
				oneEach = false
				return
			}
			d := int(start[k+1] - start[k])
			c += d
			oneEach = oneEach && d == 1
		})
		offsets[i] = c
		if !oneEach {
			notOneEach.Store(true)
		}
	})
	if mayShare && !notOneEach.Load() {
		buildIdx = make([]int32, n)
		p.Run(m, func(i int) {
			for row := i * morselRows; row < min((i+1)*morselRows, n); row++ {
				buildIdx[row] = rows[start[trans[probeCodes[row]]]]
			}
		})
		return nil, buildIdx, true
	}
	total := 0
	for i, c := range offsets {
		offsets[i] = total
		total += c
	}
	probeIdx = make([]int32, total)
	buildIdx = make([]int32, total)
	p.Run(m, func(i int) {
		lo := i * morselRows
		j := offsets[i]
		probe.sel.forEachIn(lo, min(lo+morselRows, n), func(row int) {
			k := trans[probeCodes[row]]
			if k < 0 {
				return
			}
			for _, br := range rows[start[k]:start[k+1]] {
				probeIdx[j] = int32(row)
				buildIdx[j] = br
				j++
			}
		})
	})
	return probeIdx, buildIdx, false
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

// materializeJoin builds the join's table from the matched row pairs: left
// columns first under their own names — lt's own columns when shared, in
// which case lidx is unused — then right columns gathered and renamed
// rightPrefix+name. The result inherits the left table's execution pool.
func materializeJoin(lt, rt *Table, lidx, ridx []int32, shared bool, rightPrefix string) (*Table, error) {
	cols := make([]*Column, 0, len(lt.columns)+len(rt.columns))
	for _, c := range lt.columns {
		if !shared {
			c = gather(c, lidx, c.Name)
		}
		cols = append(cols, c)
	}
	for _, c := range rt.columns {
		cols = append(cols, gather(c, ridx, rightPrefix+c.Name))
	}
	out, err := NewTable(cols...)
	if err != nil {
		return nil, err
	}
	out.pool.Store(lt.pool.Load())
	return out, nil
}
