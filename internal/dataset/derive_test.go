package dataset

import (
	"errors"
	"testing"
)

func TestWithColumn(t *testing.T) {
	tab := sampleTable(t)
	extra := NewFloatColumn("bonus", []float64{1, 2, 3, 4, 5, 6, 7, 8})
	bigger, err := tab.WithColumn(extra)
	if err != nil {
		t.Fatal(err)
	}
	if bigger.NumColumns() != tab.NumColumns()+1 || !bigger.HasColumn("bonus") {
		t.Errorf("WithColumn shape %d", bigger.NumColumns())
	}
	// Original table is untouched.
	if tab.HasColumn("bonus") {
		t.Error("WithColumn must not mutate the receiver")
	}
	if _, err := tab.WithColumn(nil); err == nil {
		t.Error("nil column should error")
	}
	if _, err := tab.WithColumn(NewFloatColumn("age", []float64{1, 2, 3, 4, 5, 6, 7, 8})); !errors.Is(err, ErrColumnExists) {
		t.Error("duplicate name should error")
	}
	if _, err := tab.WithColumn(NewFloatColumn("short", []float64{1})); !errors.Is(err, ErrLengthMismatch) {
		t.Error("length mismatch should error")
	}
}
