package colstore_test

import (
	"bytes"
	"encoding/csv"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"aware/internal/census"
	"aware/internal/colstore"
)

// benchRows is the census size of the ingest benchmarks: the row count of
// the benchmark's 300k workloads.
const benchRows = 300_000

// reportPerRow reports the benchmark's time and heap allocations per row of
// rows-row iterations, from memory statistics read before the timer started.
func reportPerRow(b *testing.B, rows int, before *runtime.MemStats) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	n := float64(b.N) * float64(rows)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/row")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/row")
}

// BenchmarkRowBuilder times awarestore gen's path: 300k census rows made by
// the generator and appended through the typed setters, then Finish.
func BenchmarkRowBuilder(b *testing.B) {
	dest := filepath.Join(b.TempDir(), "census.aware")
	cfg := census.Config{Rows: benchRows, Seed: 7, SignalStrength: 1}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb, err := colstore.NewRowBuilder(census.Schema(), dest)
		if err != nil {
			b.Fatal(err)
		}
		if err := census.EachRow(cfg, func(_ int, p census.Person) error { return p.AppendTo(rb) }); err != nil {
			rb.Abort()
			b.Fatal(err)
		}
		if err := rb.Finish(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportPerRow(b, benchRows, &before)
}

// BenchmarkIngestCSV times the same 300k rows as CSV text, read from memory
// under the census schema (no inference pass).
func BenchmarkIngestCSV(b *testing.B) {
	var text bytes.Buffer
	w := csv.NewWriter(&text)
	w.Write(census.Columns())
	fmtFloat := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	err := census.EachRow(census.Config{Rows: benchRows, Seed: 7, SignalStrength: 1}, func(_ int, p census.Person) error {
		return w.Write([]string{p.Gender, fmtFloat(p.Age), p.Education, p.MaritalStatus,
			p.Occupation, fmtFloat(p.HoursPerWeek), strconv.FormatBool(p.SalaryOver50K)})
	})
	if w.Flush(); err != nil || w.Error() != nil {
		b.Fatal(err, w.Error())
	}
	dest := filepath.Join(b.TempDir(), "census.aware")
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := colstore.IngestCSV(bytes.NewReader(text.Bytes()), census.Schema(), dest); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportPerRow(b, benchRows, &before)
}
