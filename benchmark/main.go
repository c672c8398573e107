// Command benchmark is the repository's one performance benchmark. It builds
// awared, awarerouter and awarestore from the checkout, runs them as child
// processes, drives them through internal/client from this one process (at
// most 2 goroutines and connections), drives the library through
// core.Session, checks every answer against a library-direct Apply of the same
// script, and prints every metric by name with its unit.
//
//	go run ./benchmark                       # all five workloads, untraced then traced
//	go run ./benchmark -workload http_hot_10k -seed 7 -seconds 20 -trace 0
//	go run ./benchmark -repeat 5 -out a.json # five sets; medians, quartiles, spread
//	go run ./benchmark -compare a.json b.json
//
// The acceptance driver runs bash benchmark/run.sh --workload W --seed N
// --seconds S --trace 0|1; the last line of standard output is then one JSON
// object {correct, attempted, failed, metrics}. See README.md in this
// directory for the workloads, the metric contract and how to read the layer
// ladder.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all five)")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs (census and step scripts)")
		seconds  = flag.Float64("seconds", 20, "length of the timed phase in seconds")
		trace    = flag.Int("trace", -1, "0: end-to-end metrics (untraced run); 1: per-layer metrics (traced run with the layer ladder); default both")
		repeat   = flag.Int("repeat", 0, "run N untraced sets and print each metric's median, quartiles and spread")
		compare  = flag.Bool("compare", false, "compare two result files: -compare base.json new.json")
		out      = flag.String("out", "", "write the result file (fingerprint, input digests, every run's metrics) here")
		capacity = flag.Bool("capacity", false, "run http_open_mixed_300k's op mix closed-loop and print its ops/s: how the frozen open-loop rates were chosen")
	)
	flag.Parse()
	os.Exit(realMain(*workload, *seed, *seconds, *trace, *repeat, *compare, *capacity, *out, flag.Args()))
}

func realMain(workload string, seed int64, seconds float64, trace, repeat int, compare, capacity bool, out string, args []string) int {
	if compare {
		if len(args) != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(os.Stdout, args[0], args[1])
	}
	if capacity {
		workload, trace = "http_open_mixed_300k", 0
	}
	selected := workloads
	if workload != "" {
		wl := workloadByName(workload)
		if wl == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", workload)
			return 2
		}
		selected = []workloadSpec{*wl}
	}
	if seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive")
		return 2
	}

	env, err := newBenchEnv()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	defer env.cleanup()
	if err := env.buildBinaries(); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}

	file := newResultFile(seed, seconds)
	sets := 1
	modes := []bool{false, true}
	switch {
	case repeat > 0:
		sets, modes = repeat, []bool{false}
	case trace == 0:
		modes = []bool{false}
	case trace == 1:
		modes = []bool{true}
	}
	code := 0
	var last *runResult
	for set := 0; set < sets; set++ {
		for i := range selected {
			for _, traced := range modes {
				cfg := runConfig{wl: &selected[i], seed: seed, seconds: seconds, trace: traced, capacity: capacity,
					log: os.Stdout, outDir: filepath.Join(env.root, "benchmark", "out")}
				res, err := runWorkload(env, cfg)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", selected[i].Name, err)
					env.cleanup()
					return 1
				}
				file.add(res)
				printRun(res)
				if !res.Correct {
					code = 1
				}
				last = res
			}
		}
	}
	if repeat > 0 {
		file.printSpread(os.Stdout)
	}
	if out != "" {
		if err := file.write(out); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	// Driver mode (one workload, one mode): the last line is the result object.
	if workload != "" && len(modes) == 1 && repeat == 0 {
		printResultLine(last)
	}
	return code
}

// printRun prints every metric of a run by name with its unit.
func printRun(r *runResult) {
	mode := "untraced"
	list := endToEnd
	if r.Trace {
		mode, list = "traced", perLayer
	}
	fmt.Printf("== %s (%s, seed %d): attempted %d, failed %d, input %s\n", r.Workload, mode, r.Seed, r.Attempted, r.Failed, r.InputDigest)
	for _, m := range list {
		if v, ok := r.Metrics[m.Name]; ok {
			fmt.Printf("  %-38s %14.6g %s\n", m.Name, v, m.Unit)
		}
	}
	for _, f := range r.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
}

// resultLine is the object the acceptance driver reads from the last line.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLineOf keeps exactly the metrics the run's mode owes: every
// end-to-end metric untraced, every per-layer metric traced.
func resultLineOf(r *runResult) resultLine {
	list := endToEnd
	if r.Trace {
		list = perLayer
	}
	line := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]metricValue, len(list))}
	if line.Attempted < 1 {
		line.Attempted = 1
	}
	for _, m := range list {
		line.Metrics[m.Name] = metricValue{Value: r.Metrics[m.Name], Unit: m.Unit}
	}
	return line
}

func printResultLine(r *runResult) {
	data, err := json.Marshal(resultLineOf(r))
	if err != nil {
		panic(err) // floats and strings only: cannot fail
	}
	fmt.Println(string(data))
}
