package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
)

// A result file is what -out writes and -compare reads: the host and commit
// the numbers were measured on, the input digest of every workload, and every
// run's metrics. Numbers from different hosts or different inputs are not
// comparable, so -compare refuses such pairs instead of printing a ratio.

// fingerprint identifies where and on what a result file was measured.
type fingerprint struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

// sameHost reports whether two files were measured under comparable
// conditions. The commit is expected to differ: that is what is compared.
func (f fingerprint) sameHost(o fingerprint) bool {
	return f.CPUs == o.CPUs && f.GOMAXPROCS == o.GOMAXPROCS && f.GoVersion == o.GoVersion && f.Seed == o.Seed
}

// commitOf reads the VCS revision the toolchain stamped into the binary;
// a checkout that is not a git repository reports "unknown".
func commitOf() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	return "unknown"
}

type workloadRuns struct {
	InputDigest string `json:"input_digest"`
	Attempted   int    `json:"attempted"`
	Failed      int    `json:"failed"`
	// Runs holds the end-to-end metrics of every untraced run.
	Runs []map[string]float64 `json:"runs"`
	// Layers holds the per-layer metrics of the last traced run, if any.
	Layers map[string]float64 `json:"layers,omitempty"`
}

type resultFile struct {
	Fingerprint fingerprint              `json:"fingerprint"`
	RunSeconds  float64                  `json:"run_seconds"`
	Workloads   map[string]*workloadRuns `json:"workloads"`
}

func newResultFile(seed int64, seconds float64) *resultFile {
	return &resultFile{
		Fingerprint: fingerprint{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commitOf(), Seed: seed},
		RunSeconds:  seconds,
		Workloads:   make(map[string]*workloadRuns),
	}
}

func (f *resultFile) add(r *runResult) {
	w := f.Workloads[r.Workload]
	if w == nil {
		w = &workloadRuns{InputDigest: r.InputDigest}
		f.Workloads[r.Workload] = w
	}
	w.Attempted += r.Attempted
	w.Failed += r.Failed
	if r.Trace {
		w.Layers = r.Metrics
		return
	}
	run := make(map[string]float64, len(endToEnd))
	for _, m := range endToEnd {
		run[m.Name] = r.Metrics[m.Name]
	}
	w.Runs = append(w.Runs, run)
}

func (f *resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values returns one metric's value in every run of a workload.
func (w *workloadRuns) values(metric string) []float64 {
	out := make([]float64, 0, len(w.Runs))
	for _, run := range w.Runs {
		out = append(out, run[metric])
	}
	return out
}

// printSpread prints, per workload and end-to-end metric, the median, the
// quartiles and the spread (IQR / median) of the repeated runs — how the
// builder shows a metric repeats well inside its bound.
func (f *resultFile) printSpread(w io.Writer) {
	fmt.Fprintf(w, "\n%-22s %-16s %5s %12s %12s %12s %8s %7s\n", "workload", "metric", "runs", "q1", "median", "q3", "spread", "bound")
	for _, wl := range workloads {
		runs := f.Workloads[wl.Name]
		if runs == nil || len(runs.Runs) == 0 {
			continue
		}
		for _, m := range endToEnd {
			xs := runs.values(m.Name)
			q1, q2, q3 := quartiles(xs)
			fmt.Fprintf(w, "%-22s %-16s %5d %12.5g %12.5g %12.5g %7.1f%% %6.0f%%\n", wl.Name, m.Name, len(xs), q1, q2, q3, 100*spread(xs), 100*m.Bound)
		}
	}
}

// verdict applies one metric's bound to a baseline and a candidate set of
// runs: "regressed" when the candidate's median is worse than the baseline's
// by more than the bound, "unresolved" when either side's own run-to-run
// spread is wider than the bound (the data cannot tell), "ok" otherwise.
func verdict(m metricSpec, base, cand []float64) (status string, change float64) {
	mb, mc := median(base), median(cand)
	if mb != 0 {
		change = (mc - mb) / mb
	}
	worse := change
	if m.Better == "higher" {
		worse = -change
	}
	switch {
	case spread(base) > m.Bound || spread(cand) > m.Bound:
		return "unresolved", change
	case worse > m.Bound:
		return "regressed", change
	}
	return "ok", change
}

// compareFiles prints one row per (metric, workload) and returns the process
// exit code: 0 when every pair is ok, 1 when any regressed or is unresolved,
// 2 when the files are not comparable.
func compareFiles(w io.Writer, basePath, candPath string) int {
	base, err := readResultFile(basePath)
	if err == nil {
		var cand *resultFile
		if cand, err = readResultFile(candPath); err == nil {
			return compareResults(w, base, cand)
		}
	}
	fmt.Fprintf(w, "benchmark: %v\n", err)
	return 2
}

func compareResults(w io.Writer, base, cand *resultFile) int {
	if !base.Fingerprint.sameHost(cand.Fingerprint) || base.RunSeconds != cand.RunSeconds {
		fmt.Fprintf(w, "benchmark: refusing to compare: fingerprints differ (%+v, %gs vs %+v, %gs)\n",
			base.Fingerprint, base.RunSeconds, cand.Fingerprint, cand.RunSeconds)
		return 2
	}
	for _, wl := range workloads {
		b, c := base.Workloads[wl.Name], cand.Workloads[wl.Name]
		if b != nil && c != nil && b.InputDigest != c.InputDigest {
			fmt.Fprintf(w, "benchmark: refusing to compare: %s measured different inputs (%s vs %s)\n", wl.Name, b.InputDigest, c.InputDigest)
			return 2
		}
	}
	fmt.Fprintf(w, "base %s, candidate %s\n", base.Fingerprint.Commit, cand.Fingerprint.Commit)
	fmt.Fprintf(w, "%-22s %-16s %12s %12s %8s %7s  %s\n", "workload", "metric", "base", "candidate", "change", "bound", "verdict")
	code := 0
	for _, wl := range workloads {
		b, c := base.Workloads[wl.Name], cand.Workloads[wl.Name]
		if b == nil || c == nil || len(b.Runs) == 0 || len(c.Runs) == 0 {
			continue
		}
		if c.Failed > 0 {
			fmt.Fprintf(w, "%-22s %-16s %12d %12d %8s %7s  %s\n", wl.Name, "failed", b.Failed, c.Failed, "", "0", "regressed")
			code = 1
		}
		for _, m := range endToEnd {
			status, change := verdict(m, b.values(m.Name), c.values(m.Name))
			if status != "ok" {
				code = 1
			}
			fmt.Fprintf(w, "%-22s %-16s %12.5g %12.5g %+7.1f%% %6.0f%%  %s\n", wl.Name, m.Name,
				median(b.values(m.Name)), median(c.values(m.Name)), 100*change, 100*m.Bound, status)
		}
	}
	return code
}
