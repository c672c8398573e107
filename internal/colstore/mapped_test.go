package colstore

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestMappedColumnChecks: NewStore accepts a mapped column exactly when
// every Via entry is below its own dictionary's length, one entry per code
// of a coded or bool source that is not mapped itself, with no row of its
// own; and Materialize writes out the codes Via gives each source row.
func TestMappedColumnChecks(t *testing.T) {
	key := NewCategoricalColumn("key", []string{"b", "a", "c", "a"}) // codes 1 0 2 0
	flag := NewBoolColumn("flag", []bool{true, false, false, true})
	wide := NewFloatColumn("wide", []float64{math.NaN(), 1, 2, 3})
	sector := NewCategoricalColumn("sector", []string{"x", "y"})
	pay := NewFloatColumn("pay", []float64{10, 20})
	good := []*Column{
		NewMappedColumn("k_sector", sector, key, []uint32{1, 0, 1}),
		NewMappedColumn("k_pay", pay, key, []uint32{0, 1, 1}),
		NewMappedColumn("k_flag", flag, key, []uint32{1, 1, 0}),
		NewMappedColumn("f_sector", sector, flag, []uint32{0, 1}),
	}
	if _, err := NewStore(append([]*Column{key, flag}, good...)...); err != nil {
		t.Fatalf("NewStore refused well-formed mapped columns: %v", err)
	}
	want := map[string]string{"k_sector": "[0 1 1 1]", "k_pay": "[1 0 1 0]", "k_flag": "[true true false true]", "f_sector": "[1 0 0 1]"}
	for _, c := range good {
		m := c.Materialize()
		if m.Source != nil || m.Encoding() != c.Encoding() {
			t.Fatalf("%s materialized as %s, mapped %v", c.Name, m.Encoding(), m.Source != nil)
		}
		got := fmt.Sprint(m.Codes8)
		if m.Kind == Bool {
			got = fmt.Sprint(m.Bools)
		}
		if got != want[c.Name] {
			t.Errorf("%s materialized to %s, want %s", c.Name, got, want[c.Name])
		}
	}
	chained := NewMappedColumn("chained", sector, good[0], []uint32{0, 1})
	stored := NewMappedColumn("stored", sector, key, []uint32{0, 1, 0})
	stored.Codes8 = []uint8{0, 0, 0, 0}
	for _, tc := range []struct {
		name string
		col  *Column
		want string
	}{
		{"via past the dictionary", NewMappedColumn("bad", sector, key, []uint32{0, 2, 1}), "maps past its dictionary"},
		{"bool via past 1", NewMappedColumn("bad", flag, key, []uint32{0, 2, 1}), "maps past its dictionary"},
		{"via shorter than the source's codes", NewMappedColumn("bad", sector, key, []uint32{0, 1}), "mapped codes for the 3 codes"},
		{"over a mapped column", chained, "mapped over the mapped column"},
		{"over a wide column", NewMappedColumn("bad", sector, wide, nil), "must be coded"},
		{"a wide mapped column", NewMappedColumn("bad", wide, key, []uint32{0, 0, 0}), "must be coded"},
		{"rows of its own", stored, "stores rows"},
	} {
		_, err := NewStore(key, flag, wide, tc.col)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: NewStore = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
