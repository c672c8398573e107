package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aware/internal/census"
	"aware/internal/colstore"
	"aware/internal/core"
	"aware/internal/dataset"
)

// runSession drives the REPL with scripted input and returns its output.
func runSession(t *testing.T, script string, policy string) string {
	t.Helper()
	inR, inW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	outR, outW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		inW.WriteString(script)
		inW.Close()
	}()
	done := make(chan string, 1)
	go func() {
		buf := make([]byte, 1<<20)
		var out strings.Builder
		for {
			n, err := outR.Read(buf)
			out.Write(buf[:n])
			if err != nil {
				break
			}
		}
		done <- out.String()
	}()
	if err := run("", 3000, 1, 0.05, policy, inR, outW); err != nil {
		t.Fatalf("run: %v", err)
	}
	outW.Close()
	return <-done
}

func TestREPLFullSession(t *testing.T) {
	script := strings.Join([]string{
		"help",
		"cols",
		"show gender",
		"viz gender where salary_over_50k=true",
		"viz gender where salary_over_50k=!true",
		"compare 2 3",
		"star 3",
		"means age 2 3",
		"delete 2",
		"gauge",
		"bogus command",
		"viz gender where bad-token",
		"quit",
	}, "\n") + "\n"
	out := runSession(t, script, "epsilon-hybrid")
	for _, want := range []string{
		"AWARE — exploring",
		"gender, age, education",
		"[viz 1] gender",
		"[viz 2] gender | salary_over_50k = true",
		"risk gauge",
		"unknown command",
		"must look like column=value",
		"discoveries",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("REPL output missing %q", want)
		}
	}
}

func TestREPLArgumentErrors(t *testing.T) {
	script := strings.Join([]string{
		"show",
		"viz gender",
		"compare a b",
		"means age x y",
		"star x",
		"delete x",
		"show no_such_column",
		"quit",
	}, "\n") + "\n"
	out := runSession(t, script, "gamma-fixed")
	for _, want := range []string{
		"usage: show <attr>",
		"usage: viz",
		"visualization ids must be integers",
		"hypothesis id must be an integer",
		"column not found",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("REPL output missing %q", want)
		}
	}
}

func TestBuildPolicyNames(t *testing.T) {
	for _, name := range []string{"beta-farsighted", "gamma-fixed", "delta-hopeful", "epsilon-hybrid", "psi-support"} {
		p, err := buildPolicy(name, 0.05)
		if err != nil || p == nil {
			t.Errorf("buildPolicy(%q): %v", name, err)
		}
	}
	if _, err := buildPolicy("nope", 0.05); err == nil {
		t.Error("unknown policy should error")
	}
	if _, err := buildPolicy("gamma-fixed", 2); err == nil {
		t.Error("invalid alpha should error")
	}
}

func TestLoadTableFromCSV(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "mini*.csv")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("city,segment\nparis,a\nparis,b\nlyon,a\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	table, err := loadTable(f.Name(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if table.NumRows() != 3 || !table.HasColumn("city") {
		t.Errorf("loaded table %v", table.Describe())
	}
	if _, err := loadTable("/no/such/file.csv", 0, 0); err == nil {
		t.Error("missing CSV should error")
	}
}

// TestLoadTableInfersLikeAwarestore loads a census CSV with -csv: the table
// is the one awarestore build makes of the file.
func TestLoadTableInfersLikeAwarestore(t *testing.T) {
	checkLikeAwarestore(t, func(csvPath string) (*dataset.Table, error) {
		return loadTable(csvPath, 0, 0)
	})
}

// checkLikeAwarestore writes the census CSV that `censusgen -rows 5000 -seed
// 7` writes, loads it with load, and fails t unless the table's snapshot is,
// byte for byte, the one awarestore build (colstore.IngestCSVFile) makes of
// the file, and each column's chart under occupation = Sales draws the same
// p-value from both tables, bit for bit. The upload handler, awared -dataset
// and aware -csv each run this check in their own package's tests.
func checkLikeAwarestore(t *testing.T, load func(csvPath string) (*dataset.Table, error)) {
	t.Helper()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	csvPath, builtPath, routedPath := filepath.Join(dir, "census.csv"), filepath.Join(dir, "built.aware"), filepath.Join(dir, "routed.aware")
	table, err := census.Generate(census.Config{Rows: 5000, Seed: 7, SignalStrength: 1})
	check(err)
	var csv bytes.Buffer
	check(table.WriteCSV(&csv))
	check(os.WriteFile(csvPath, csv.Bytes(), 0o644))
	_, _, err = colstore.IngestCSVFile(csvPath, nil, builtPath)
	check(err)
	built, err := dataset.OpenSnapshot(builtPath)
	check(err)
	defer built.Close()
	routed, err := load(csvPath)
	check(err)
	check(routed.Snapshot(routedPath))
	want, _ := os.ReadFile(builtPath)
	if got, _ := os.ReadFile(routedPath); !bytes.Equal(got, want) {
		t.Errorf("the route's table differs from awarestore build's:\n got %v\nwant %v", routed.Store().Schema(), built.Store().Schema())
	}
	sales := dataset.Equals{Column: census.ColOccupation, Value: "Sales"}
	for _, name := range built.ColumnNames() {
		want, _, wantErr := core.FilterVsPopulationTestWith(dataset.NewSelectionCache(built), name, sales)
		got, _, gotErr := core.FilterVsPopulationTestWith(dataset.NewSelectionCache(routed), name, sales)
		if math.Float64bits(got.PValue) != math.Float64bits(want.PValue) || got.DF != want.DF || (gotErr == nil) != (wantErr == nil) {
			t.Errorf("chart of %s: p = %v (%v), awarestore build's p = %v (%v)", name, got.PValue, gotErr, want.PValue, wantErr)
		}
	}
}
