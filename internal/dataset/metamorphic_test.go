package dataset_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"aware/internal/core"
	"aware/internal/dataset"
)

// The invariant testing on counts buys: the numeric tests of a session read
// each selection as a multiset, so nothing that leaves the multisets alone —
// the order of the table's rows, the store it is loaded through, whether the
// column is stored as byte codes or wide, the size of the pool — can move a
// p-value, a bid or the wealth by a single bit.

// ledger is what a scripted session leaves behind, bit for bit: per
// hypothesis the p-value, the statistic and the α invested, then the wealth.
func ledger(t *testing.T, label string, tab *dataset.Table) []uint64 {
	t.Helper()
	sess, err := core.NewSession(tab, core.Options{})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	young := dataset.Range{Column: "age", Low: 17, High: 40}
	steps := []core.Step{
		core.AddVisualization{Target: "color", Filter: dataset.Equals{Column: "group", Value: "a"}},
		core.AddVisualization{Target: "color", Filter: dataset.Equals{Column: "group", Value: "b"}},
		core.CompareMeans{Attribute: "hours", A: 1, B: 2},
		core.CompareDistributions{Attribute: "hours", A: 1, B: 2},
		core.AddVisualization{Target: "hours", Filter: young},
		core.AddVisualization{Target: "hours", Filter: dataset.Not{Inner: young}},
		core.CompareMeans{Attribute: "age", A: 1, B: 2},
		core.CompareMeans{Attribute: "hours", A: 3, B: 4},
		core.CompareDistributions{Attribute: "age", A: 2, B: 3},
	}
	var out []uint64
	for i, step := range steps {
		res, err := sess.Apply(step)
		if err != nil {
			t.Fatalf("%s: step %d (%s): %v", label, i+1, step.Kind(), err)
		}
		if h := res.Hypothesis; h != nil {
			out = append(out, math.Float64bits(h.Test.PValue), math.Float64bits(h.Test.Statistic),
				math.Float64bits(h.AlphaInvested), uint64(h.SupportSize))
		}
		out = append(out, math.Float64bits(sess.Wealth()))
	}
	return out
}

func TestNumericTestsSeeOnlyTheMultiset(t *testing.T) {
	const rows = 40_000 // three morsels
	rng := rand.New(rand.NewSource(2302))
	group, color := make([]string, rows), make([]string, rows)
	hours, age := make([]float64, rows), make([]int64, rows)
	for i := range group {
		group[i] = []string{"a", "b", "c"}[rng.Intn(3)]
		color[i] = []string{"red", "blue"}[rng.Intn(2)]
		age[i] = int64(17 + rng.Intn(74))
		hours[i] = math.Round(40+8*rng.NormFloat64()) / 3 // thirds: every sum rounds
		if group[i] == "b" {
			hours[i] = math.Round(41+8*rng.NormFloat64()) / 3
		}
	}
	mem, err := dataset.NewTable(dataset.NewCategoricalColumn("group", group), dataset.NewCategoricalColumn("color", color),
		dataset.NewFloatColumn("hours", hours), dataset.NewIntColumn("age", age))
	if err != nil {
		t.Fatal(err)
	}
	want := ledger(t, "memory", mem)
	if mem.Store().Column("hours").Width != 1 || mem.Store().Column("age").Width != 1 {
		t.Fatal("hours and age are not stored as byte codes")
	}

	variants := dataset.SnapshotVariants(t, mem)
	variants["wide twin"] = dataset.WideTwin(mem)
	for k := 0; k < 3; k++ {
		permuted, err := mem.Select(rng.Perm(rows))
		if err != nil {
			t.Fatal(err)
		}
		variants[fmt.Sprintf("permutation %d", k)] = permuted
		variants[fmt.Sprintf("permutation %d, wide", k)] = dataset.WideTwin(permuted)
	}
	for _, workers := range []int{1, 2, 8} {
		pool := dataset.NewPool(workers)
		defer pool.Close()
		for name, tab := range variants {
			tab.SetPool(pool)
			label := fmt.Sprintf("%s, %d workers", name, workers)
			got := ledger(t, label, tab)
			if len(got) != len(want) {
				t.Fatalf("%s: ledger of %d entries, want %d", label, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s: ledger entry %d = %v, in memory %v", label, i,
						math.Float64frombits(got[i]), math.Float64frombits(want[i]))
				}
			}
		}
	}
}
