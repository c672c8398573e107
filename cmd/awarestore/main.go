// Command awarestore builds, inspects and verifies the columnar snapshot
// files (*.aware) that awared serves via -data. It is the offline half of the
// storage engine: ingest row-oriented text (CSV, JSONL) or the synthetic
// census generator into a snapshot once, then any number of awared restarts
// and replicas mmap the result with zero re-parse.
//
// Subcommands:
//
//	awarestore build -in data.csv -out data.aware              # infer the schema
//	awarestore build -in data.csv -schema s.json -out d.aware  # explicit schema
//	awarestore build -in rows.jsonl -format jsonl -out d.aware
//	awarestore build -in data.csv -out d.aware -emit-schema s.json
//	awarestore gen -rows 3000000 -seed 1 -out census.aware     # stream the census
//	awarestore inspect data.aware                              # header + schema
//	awarestore verify data.aware                               # full validation
//
// build and gen stream through one snapshot builder (colstore.RowBuilder),
// which holds at most a few row batches in memory: the main goroutine parses
// CSV/JSONL (schema inference costs one extra sequential read when -schema is
// not given) or generates census rows and sets their values through the
// builder's typed setters, while the builder's encoder goroutine codes and
// spills the batches already filled. Million-row snapshots never materialize
// a table.
//
// verify exits non-zero if the snapshot fails any structural, checksum or
// dictionary validation — the same validation awared runs at -data startup.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"aware/internal/census"
	"aware/internal/colstore"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "build":
		err = cmdBuild(os.Args[2:])
	case "gen":
		err = cmdGen(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "awarestore: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "awarestore: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: awarestore <subcommand> [flags]

subcommands:
  build    ingest a CSV or JSONL file into a columnar snapshot
  gen      stream the synthetic census generator into a snapshot
  inspect  print a snapshot's header, schema and segment sizes
  verify   fully validate a snapshot (structure, CRC, dictionaries)

run 'awarestore <subcommand> -h' for the subcommand's flags.
`)
}

// cmdBuild ingests a text file into a snapshot.
func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	in := fs.String("in", "", "input file (required)")
	out := fs.String("out", "", "output snapshot path (required, conventionally *.aware)")
	format := fs.String("format", "", "input format: csv or jsonl (default: by file extension, falling back to csv)")
	schemaPath := fs.String("schema", "", "schema JSON file typing the columns (default: infer from the data in one extra pass)")
	emitSchema := fs.String("emit-schema", "", "write the schema that was used (given or inferred) to this JSON file")
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("build: -in and -out are required")
	}

	var schema colstore.Schema
	if *schemaPath != "" {
		var err error
		if schema, err = colstore.LoadSchema(*schemaPath); err != nil {
			return err
		}
	}
	f := *format
	if f == "" {
		if strings.HasSuffix(*in, ".jsonl") || strings.HasSuffix(*in, ".ndjson") {
			f = "jsonl"
		} else {
			f = "csv"
		}
	}

	var rows int
	var used colstore.Schema
	var err error
	switch f {
	case "csv":
		rows, used, err = colstore.IngestCSVFile(*in, schema, *out)
	case "jsonl":
		rows, used, err = colstore.IngestJSONLFile(*in, schema, *out)
	default:
		return fmt.Errorf("build: unknown format %q (want csv or jsonl)", f)
	}
	if err != nil {
		return err
	}
	if *emitSchema != "" {
		if err := colstore.SaveSchema(*emitSchema, used); err != nil {
			return err
		}
	}
	fi, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d rows x %d columns, %d bytes\n", *out, rows, len(used), fi.Size())
	return nil
}

// cmdGen streams the census generator into a snapshot through the builder's
// typed setters, with a few row batches in memory.
func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	rows := fs.Int("rows", 30000, "number of census rows to generate")
	seed := fs.Int64("seed", 1, "random seed")
	signal := fs.Float64("signal", 1, "strength of the planted correlations (0 = independent columns)")
	out := fs.String("out", "census.aware", "output snapshot path")
	fs.Parse(args)

	b, err := colstore.NewRowBuilder(census.Schema(), *out)
	if err != nil {
		return err
	}
	cfg := census.Config{Rows: *rows, Seed: *seed, SignalStrength: *signal}
	if err := census.EachRow(cfg, func(i int, p census.Person) error {
		return p.AppendTo(b)
	}); err != nil {
		b.Abort()
		return err
	}
	if err := b.Finish(); err != nil {
		return err
	}
	fi, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d rows x %d columns, %d bytes\n", *out, *rows, len(census.Schema()), fi.Size())
	return nil
}

// cmdInspect prints a snapshot's metadata without loading the value vectors
// into the heap (the mmap path makes this cheap at any size).
func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("inspect: want exactly one snapshot path")
	}
	path := fs.Arg(0)
	st, err := colstore.Open(path)
	if err != nil {
		return err
	}
	defer st.Close()

	mode := "heap"
	if st.Resident() {
		mode = "mmap"
	}
	fmt.Printf("%s: snapshot v%d, %d rows, %d columns, %d bytes (%s)\n",
		path, st.Version(), st.Rows(), st.NumColumns(), st.SizeBytes(), mode)
	if st.Rows() > 0 {
		fmt.Printf("  %.2f bytes per row\n", float64(st.SizeBytes())/float64(st.Rows()))
	}
	for _, c := range st.Columns() {
		fmt.Printf("  %-24s %-12s %s\n", c.Name, c.Kind, c.Encoding())
	}
	return nil
}

// cmdVerify runs the full snapshot validation and reports pass/fail.
func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	quiet := fs.Bool("q", false, "print nothing on success")
	fs.Parse(args)
	if fs.NArg() < 1 {
		return fmt.Errorf("verify: want at least one snapshot path")
	}
	for _, path := range fs.Args() {
		st, err := colstore.Open(path)
		if err != nil {
			return err // Open's errors already name the path
		}
		rows, cols := st.Rows(), st.NumColumns()
		st.Close()
		if !*quiet {
			fmt.Printf("%s: ok (%d rows, %d columns)\n", path, rows, cols)
		}
	}
	return nil
}
