// Command aware is a text-mode analogue of the AWARE user interface: an
// interactive exploration session over the synthetic census dataset (or a CSV
// file) in which every filtered visualization becomes a tracked hypothesis and
// a risk gauge reports the remaining α-wealth.
//
// Usage:
//
//	aware                          # explore the built-in synthetic census
//	aware -csv data.csv            # explore a CSV file (column types are inferred)
//	aware -policy gamma-fixed      # choose the investing rule
//
// Commands inside the session:
//
//	cols                          list columns
//	show <attr>                   descriptive histogram (rule 1: no hypothesis)
//	viz <attr> where <col>=<val> [and <col>=<val> ...]
//	                              filtered histogram (rule 2: default hypothesis)
//	compare <vizA> <vizB>         side-by-side comparison (rule 3)
//	means <numeric> <vizA> <vizB> explicit t-test on means (user override)
//	star <hypothesis>             mark an important discovery
//	delete <viz>                  declare a visualization descriptive
//	gauge                         print the risk gauge
//	log                           print the session's step journal (JSON lines,
//	                              replayable with aware.Replay / awared)
//	help                          this list
//	quit                          exit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"aware/internal/census"
	"aware/internal/core"
	"aware/internal/dataset"
	"aware/internal/investing"
)

func main() {
	var (
		csvPath = flag.String("csv", "", "CSV file to explore (default: built-in synthetic census)")
		rows    = flag.Int("rows", 30000, "rows of synthetic census when no CSV is given")
		seed    = flag.Int64("seed", 1, "seed for the synthetic census")
		alpha   = flag.Float64("alpha", 0.05, "mFDR control level")
		policy  = flag.String("policy", "epsilon-hybrid", "investing rule: beta-farsighted, gamma-fixed, delta-hopeful, epsilon-hybrid, psi-support")
	)
	flag.Parse()

	if err := run(*csvPath, *rows, *seed, *alpha, *policy, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "aware: %v\n", err)
		os.Exit(1)
	}
}

func run(csvPath string, rows int, seed int64, alpha float64, policyName string, in *os.File, out *os.File) error {
	table, err := loadTable(csvPath, rows, seed)
	if err != nil {
		return err
	}
	pol, err := buildPolicy(policyName, alpha)
	if err != nil {
		return err
	}
	session, err := core.NewSession(table, core.Options{Alpha: alpha, Policy: pol})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "AWARE — exploring %s with %s at alpha %.2f\n", table.Describe(), session.PolicyName(), alpha)
	fmt.Fprintln(out, "type 'help' for commands")

	scanner := bufio.NewScanner(in)
	for {
		fmt.Fprint(out, "aware> ")
		if !scanner.Scan() {
			fmt.Fprintln(out)
			return scanner.Err()
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			fmt.Fprintln(out, session.Gauge().Render())
			return nil
		}
		if err := execute(session, line, out); err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
		}
	}
}

// loadTable loads the CSV or generates the synthetic census.
func loadTable(csvPath string, rows int, seed int64) (*dataset.Table, error) {
	if csvPath == "" {
		return census.Generate(census.Config{Rows: rows, Seed: seed, SignalStrength: 1})
	}
	return dataset.LoadCSV(csvPath, nil)
}

// buildPolicy constructs the named investing rule with the paper's parameters.
func buildPolicy(name string, alpha float64) (investing.Policy, error) {
	return investing.NewNamedPolicy(name, alpha)
}

// execute runs a single REPL command.
func execute(session *core.Session, line string, out *os.File) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case "help":
		fmt.Fprintln(out, "commands: cols | show <attr> | viz <attr> where <col>=<val> [and ...] | compare <a> <b> | means <numeric> <a> <b> | star <h> | delete <viz> | gauge | log | quit")
		return nil
	case "cols":
		fmt.Fprintln(out, strings.Join(session.Data().ColumnNames(), ", "))
		return nil
	case "gauge":
		fmt.Fprint(out, session.Gauge().Render())
		return nil
	case "log":
		// One step per line: the exact wire format POST /v1/sessions/{id}/steps
		// accepts, so a session transcript can be replayed against awared.
		for _, entry := range session.Log() {
			line, err := core.MarshalStep(entry.Step)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%s\n", line)
		}
		return nil
	case "show":
		if len(fields) != 2 {
			return fmt.Errorf("usage: show <attr>")
		}
		res, err := session.Apply(core.AddVisualization{Target: fields[1]})
		if err != nil {
			return err
		}
		return printHistogram(session, res.Visualization, out)
	case "viz":
		return executeViz(session, fields, out)
	case "compare":
		if len(fields) != 3 {
			return fmt.Errorf("usage: compare <vizA> <vizB>")
		}
		a, errA := strconv.Atoi(fields[1])
		b, errB := strconv.Atoi(fields[2])
		if errA != nil || errB != nil {
			return fmt.Errorf("visualization ids must be integers")
		}
		res, err := session.Apply(core.CompareVisualizations{A: a, B: b})
		if err != nil {
			return err
		}
		fmt.Fprintln(out, res.Hypothesis.Summary())
		return nil
	case "means":
		if len(fields) != 4 {
			return fmt.Errorf("usage: means <numeric> <vizA> <vizB>")
		}
		a, errA := strconv.Atoi(fields[2])
		b, errB := strconv.Atoi(fields[3])
		if errA != nil || errB != nil {
			return fmt.Errorf("visualization ids must be integers")
		}
		res, err := session.Apply(core.CompareMeans{Attribute: fields[1], A: a, B: b})
		if err != nil {
			return err
		}
		fmt.Fprintln(out, res.Hypothesis.Summary())
		return nil
	case "star":
		if len(fields) != 2 {
			return fmt.Errorf("usage: star <hypothesis>")
		}
		id, err := strconv.Atoi(fields[1])
		if err != nil {
			return fmt.Errorf("hypothesis id must be an integer")
		}
		_, err = session.Apply(core.Star{Hypothesis: id, Starred: true})
		return err
	case "delete":
		if len(fields) != 2 {
			return fmt.Errorf("usage: delete <viz>")
		}
		id, err := strconv.Atoi(fields[1])
		if err != nil {
			return fmt.Errorf("visualization id must be an integer")
		}
		_, err = session.Apply(core.DeclareDescriptive{Visualization: id})
		return err
	default:
		return fmt.Errorf("unknown command %q (try 'help')", fields[0])
	}
}

// executeViz parses "viz <attr> where a=b [and c=d ...]".
func executeViz(session *core.Session, fields []string, out *os.File) error {
	if len(fields) < 4 || fields[2] != "where" {
		return fmt.Errorf("usage: viz <attr> where <col>=<val> [and <col>=<val> ...]")
	}
	target := fields[1]
	var terms []dataset.Predicate
	for _, tok := range fields[3:] {
		if tok == "and" {
			continue
		}
		parts := strings.SplitN(tok, "=", 2)
		if len(parts) != 2 {
			return fmt.Errorf("filter %q must look like column=value", tok)
		}
		col, val := parts[0], parts[1]
		if strings.HasPrefix(val, "!") {
			terms = append(terms, dataset.Not{Inner: dataset.Equals{Column: col, Value: strings.TrimPrefix(val, "!")}})
		} else {
			terms = append(terms, dataset.Equals{Column: col, Value: val})
		}
	}
	res, err := session.Apply(core.AddVisualization{Target: target, Filter: dataset.And{Terms: terms}})
	if err != nil {
		return err
	}
	if err := printHistogram(session, res.Visualization, out); err != nil {
		return err
	}
	if res.Hypothesis != nil {
		fmt.Fprintln(out, res.Hypothesis.Summary())
	}
	return nil
}

// printHistogram renders the visualization's histogram as text bars.
func printHistogram(session *core.Session, viz *core.Visualization, out *os.File) error {
	groups, err := viz.Histogram(session.Data())
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "[viz %d] %s\n", viz.ID, viz.Describe())
	max := 0
	for _, g := range groups {
		if g.Count > max {
			max = g.Count
		}
	}
	for _, g := range groups {
		bar := ""
		if max > 0 {
			bar = strings.Repeat("#", g.Count*40/max)
		}
		fmt.Fprintf(out, "  %-15s %7d %s\n", g.Value, g.Count, bar)
	}
	return nil
}
