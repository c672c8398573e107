// Command awarebench regenerates every table and figure of the paper's
// evaluation as plain-text reports.
//
// Usage:
//
//	awarebench -exp all                 # everything (paper-scale, slow)
//	awarebench -exp 1a -reps 200        # Figure 3 with 200 replications
//	awarebench -exp 1b -null 0.25       # Figure 4, 25% true nulls
//	awarebench -exp 1c                  # Figure 5
//	awarebench -exp 2                   # Figure 6 (census workflows)
//	awarebench -exp 2 -randomized       # Figure 6 (d)(e), randomized census
//	awarebench -exp intro               # Section 1 / 2.4 numbers
//	awarebench -exp holdout             # Section 4.1 hold-out analysis
//	awarebench -exp subsets             # Theorem 1 empirical check
//	awarebench -exp replay              # hold-out replay of a recorded step log
//
// Performance is measured by the repository benchmark in benchmark/, not here.
package main

import (
	"flag"
	"fmt"
	"os"

	"aware/internal/simulation"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment to run: 1a, 1b, 1c, 2, intro, holdout, subsets, replay, all")
		reps       = flag.Int("reps", 0, "replications per configuration (0 = paper defaults: 1000 synthetic, 20 census)")
		seed       = flag.Int64("seed", 1, "random seed")
		nullProp   = flag.Float64("null", -1, "true-null proportion for 1a/1b/1c (-1 = run the paper's set)")
		rows       = flag.Int("rows", 30000, "census rows for experiments 2 and replay")
		hypotheses = flag.Int("hypotheses", 115, "workflow hypotheses for experiments 2 and replay")
		randomized = flag.Bool("randomized", false, "use the randomized census for experiment 2")
	)
	flag.Parse()

	if err := run(*exp, *reps, *seed, *nullProp, *rows, *hypotheses, *randomized); err != nil {
		fmt.Fprintf(os.Stderr, "awarebench: %v\n", err)
		os.Exit(1)
	}
}

func run(exp string, reps int, seed int64, nullProp float64, rows, hypotheses int, randomized bool) error {
	switch exp {
	case "1a":
		return runExp1a(reps, seed, nullProp)
	case "1b":
		return runExp1b(reps, seed, nullProp)
	case "1c":
		return runExp1c(reps, seed, nullProp)
	case "2":
		return runExp2(reps, seed, rows, hypotheses, randomized)
	case "intro":
		return runIntro()
	case "holdout":
		return runHoldout(reps, seed)
	case "subsets":
		return runSubsets(reps, seed)
	case "replay":
		return runReplayHoldout(seed, rows, hypotheses)
	case "all":
		for _, step := range []func() error{
			runIntro,
			func() error { return runExp1a(reps, seed, nullProp) },
			func() error { return runExp1b(reps, seed, nullProp) },
			func() error { return runExp1c(reps, seed, nullProp) },
			func() error { return runExp2(reps, seed, rows, hypotheses, false) },
			func() error { return runExp2(reps, seed, rows, hypotheses, true) },
			func() error { return runHoldout(reps, seed) },
			func() error { return runSubsets(reps, seed) },
		} {
			if err := step(); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}

func nullSet(nullProp float64, defaults []float64) []float64 {
	if nullProp >= 0 {
		return []float64{nullProp}
	}
	return defaults
}

func runExp1a(reps int, seed int64, nullProp float64) error {
	for _, null := range nullSet(nullProp, []float64{0.75, 1.0}) {
		ms, err := simulation.Exp1a(simulation.Exp1aConfig{NullProportion: null, Replications: reps, Seed: seed})
		if err != nil {
			return err
		}
		title := fmt.Sprintf("Exp.1a (Figure 3) — static procedures, %.0f%% true nulls", 100*null)
		if err := simulation.WriteReport(os.Stdout, title, "hypotheses", ms); err != nil {
			return err
		}
	}
	return nil
}

func runExp1b(reps int, seed int64, nullProp float64) error {
	for _, null := range nullSet(nullProp, []float64{0.25, 0.75, 1.0}) {
		ms, err := simulation.Exp1b(simulation.Exp1bConfig{NullProportion: null, Replications: reps, Seed: seed})
		if err != nil {
			return err
		}
		title := fmt.Sprintf("Exp.1b (Figure 4) — incremental procedures, %.0f%% true nulls", 100*null)
		if err := simulation.WriteReport(os.Stdout, title, "hypotheses", ms); err != nil {
			return err
		}
	}
	return nil
}

func runExp1c(reps int, seed int64, nullProp float64) error {
	for _, null := range nullSet(nullProp, []float64{0.25, 0.75}) {
		ms, err := simulation.Exp1c(simulation.Exp1cConfig{NullProportion: null, Replications: reps, Seed: seed})
		if err != nil {
			return err
		}
		title := fmt.Sprintf("Exp.1c (Figure 5) — varying sample size, %.0f%% true nulls", 100*null)
		if err := simulation.WriteReport(os.Stdout, title, "sample size", ms); err != nil {
			return err
		}
	}
	return nil
}

func runExp2(reps int, seed int64, rows, hypotheses int, randomized bool) error {
	cfg := simulation.Exp2Config{
		Rows:         rows,
		Hypotheses:   hypotheses,
		Randomized:   randomized,
		Replications: reps,
		Seed:         seed,
	}
	ms, err := simulation.Exp2(cfg)
	if err != nil {
		return err
	}
	variant := "Census"
	if randomized {
		variant = "Randomized Census"
	}
	title := fmt.Sprintf("Exp.2 (Figure 6) — real workflows on %s (%d hypotheses)", variant, hypotheses)
	return simulation.WriteReport(os.Stdout, title, "sample size", ms)
}

func runIntro() error {
	fmt.Println("== Introduction / Section 2.4 — why uncorrected exploration misleads ==")
	fmt.Println(simulation.Intro().String())
	fmt.Println()
	return nil
}

func runHoldout(reps int, seed int64) error {
	if reps <= 0 {
		reps = 2000
	}
	m, err := simulation.HoldoutExperiment(500, reps, seed)
	if err != nil {
		return err
	}
	fmt.Println("== Section 4.1 — hold-out dataset analysis (mu 0 vs 1, sigma 4, n=500/group) ==")
	fmt.Printf("full-data test power:      empirical %.3f, theoretical %.3f (paper: 0.99)\n", m.FullDataPower, m.Theoretical.FullDataPower)
	fmt.Printf("half-data test power:      empirical %.3f, theoretical %.3f (paper: 0.87)\n", m.SplitHalfPower, m.Theoretical.SplitHalfPower)
	fmt.Printf("hold-out confirm power:    empirical %.3f, theoretical %.3f (paper: 0.76)\n", m.HoldoutPower, m.Theoretical.HoldoutPower)
	fmt.Println()
	return nil
}

func runReplayHoldout(seed int64, rows, hypotheses int) error {
	m, err := simulation.ReplayHoldoutExperiment(simulation.ReplayHoldoutConfig{
		Rows:       rows,
		Hypotheses: hypotheses,
		Seed:       seed,
	})
	if err != nil {
		return err
	}
	fmt.Println("== Section 4.1 generalized — hold-out replay of a recorded exploration log ==")
	fmt.Printf("recorded steps:            %d (user-study workflow as core Steps)\n", m.StepsRecorded)
	fmt.Printf("full-data session:         %d active hypotheses, %d discoveries\n", m.ActiveHypotheses, m.FullDiscoveries)
	fmt.Printf("hold-out confirmation:     %d/%d active hypotheses (%.2f)\n", m.Confirmed, m.ActiveTotal, m.ConfirmationRate)
	fmt.Println()
	return nil
}

func runSubsets(reps int, seed int64) error {
	if reps <= 0 {
		reps = 2000
	}
	res, err := simulation.SubsetExperiment(64, 0.75, 0.5, reps, seed)
	if err != nil {
		return err
	}
	fmt.Println("== Section 6 (Theorem 1) — FDR of p-value-independent subsets ==")
	fmt.Printf("BH over 64 hypotheses (75%% null), %d replications:\n", res.Reps)
	fmt.Printf("full discovery set FDR:     %.4f\n", res.FullFDR)
	fmt.Printf("random 50%% subset FDR:      %.4f (Theorem 1: stays controlled at alpha)\n", res.SubsetFDR)
	fmt.Println()
	return nil
}
