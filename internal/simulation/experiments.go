package simulation

import (
	"fmt"
	"math/rand"
)

// Experiment parameter defaults shared with the paper.
const (
	// PaperAlpha is the control level used in every experiment.
	PaperAlpha = 0.05
	// PaperReplications is the replication count of the paper's synthetic
	// experiments; the benchmarks and tests use fewer.
	PaperReplications = 1000
)

// HypothesisCounts is the x-axis of Figures 3 and 4.
var HypothesisCounts = []float64{4, 8, 16, 32, 64}

// SampleFractions is the x-axis of Figures 5 and 6.
var SampleFractions = []float64{0.1, 0.3, 0.5, 0.7, 0.9}

// Exp1aConfig parameterizes Exp. 1a (Figure 3): static procedures on the
// synthetic workload.
type Exp1aConfig struct {
	NullProportion float64 // 0.75 or 1.0 in the paper
	Replications   int
	Seed           int64
}

// Exp1a runs the static-procedure experiment and returns one Measurement per
// (procedure, number of hypotheses).
func Exp1a(cfg Exp1aConfig) ([]Measurement, error) {
	if cfg.Replications <= 0 {
		cfg.Replications = PaperReplications
	}
	sourceFor := func(m float64) StreamSource {
		return func(rng *rand.Rand) (Stream, error) {
			return GenerateSynthetic(DefaultSyntheticConfig(int(m), cfg.NullProportion), rng)
		}
	}
	return Sweep(HypothesisCounts, sourceFor, StaticRunners(), PaperAlpha, cfg.Replications, cfg.Seed)
}

// Exp1bConfig parameterizes Exp. 1b (Figure 4): incremental procedures over a
// varying number of hypotheses.
type Exp1bConfig struct {
	NullProportion float64 // 0.25, 0.75 or 1.0
	Replications   int
	Seed           int64
}

// Exp1b runs the incremental-procedure experiment.
func Exp1b(cfg Exp1bConfig) ([]Measurement, error) {
	if cfg.Replications <= 0 {
		cfg.Replications = PaperReplications
	}
	sourceFor := func(m float64) StreamSource {
		return func(rng *rand.Rand) (Stream, error) {
			return GenerateSynthetic(DefaultSyntheticConfig(int(m), cfg.NullProportion), rng)
		}
	}
	return Sweep(HypothesisCounts, sourceFor, IncrementalRunners(), PaperAlpha, cfg.Replications, cfg.Seed)
}

// Exp1cConfig parameterizes Exp. 1c (Figure 5): incremental procedures with 64
// hypotheses and a varying support (sample) size.
type Exp1cConfig struct {
	NullProportion float64 // 0.25 or 0.75
	Hypotheses     int     // 64 in the paper
	BaseSamples    int     // per-group sample size at 100%
	Replications   int
	Seed           int64
}

// Exp1c runs the varying-support experiment.
func Exp1c(cfg Exp1cConfig) ([]Measurement, error) {
	if cfg.Replications <= 0 {
		cfg.Replications = PaperReplications
	}
	if cfg.Hypotheses <= 0 {
		cfg.Hypotheses = 64
	}
	if cfg.BaseSamples <= 0 {
		cfg.BaseSamples = 10
	}
	sourceFor := func(fraction float64) StreamSource {
		return func(rng *rand.Rand) (Stream, error) {
			synth := DefaultSyntheticConfig(cfg.Hypotheses, cfg.NullProportion)
			synth.BaseSamplesPerGroup = cfg.BaseSamples
			synth.SampleFraction = fraction
			return GenerateSynthetic(synth, rng)
		}
	}
	return Sweep(SampleFractions, sourceFor, IncrementalRunners(), PaperAlpha, cfg.Replications, cfg.Seed)
}

// IntroExample quantifies the Section 1 and Section 2.4 motivating numbers.
type IntroExample struct {
	// Hypotheses and power/alpha of the Section 1 example.
	Hypotheses     int
	TrueEffects    int
	Power          float64
	Alpha          float64
	ExpectedTrue   float64 // expected true discoveries
	ExpectedFalse  float64 // expected false discoveries
	FalseShare     float64 // expected V / R
	InflationTwo   float64 // 1 - (1-alpha)^2
	InflationFour  float64 // 1 - (1-alpha)^4
	InflationTwoK  int
	InflationFourK int
}

// Intro computes the closed-form numbers of the introduction: testing 100
// hypotheses of which 10 are true effects with power 0.8 at alpha 0.05 yields
// about 13 discoveries of which roughly 40% are false, and an uncorrected
// explorer implicitly testing 2 (resp. 4) hypotheses inflates the false
// discovery chance to 1-(1-alpha)^2 (resp. ^4).
func Intro() IntroExample {
	e := IntroExample{
		Hypotheses:     100,
		TrueEffects:    10,
		Power:          0.8,
		Alpha:          0.05,
		InflationTwoK:  2,
		InflationFourK: 4,
	}
	e.ExpectedTrue = float64(e.TrueEffects) * e.Power
	e.ExpectedFalse = float64(e.Hypotheses-e.TrueEffects) * e.Alpha
	e.FalseShare = e.ExpectedFalse / (e.ExpectedFalse + e.ExpectedTrue)
	e.InflationTwo = 1 - pow(1-e.Alpha, 2)
	e.InflationFour = 1 - pow(1-e.Alpha, 4)
	return e
}

func pow(base float64, k int) float64 {
	out := 1.0
	for i := 0; i < k; i++ {
		out *= base
	}
	return out
}

// String renders the intro example for the CLI.
func (e IntroExample) String() string {
	return fmt.Sprintf(
		"m=%d hypotheses, %d true effects, power %.2f, alpha %.2f -> E[R] ~ %.1f, E[V] ~ %.1f (%.0f%% false); implicit-test inflation: k=2 -> %.3f, k=4 -> %.3f",
		e.Hypotheses, e.TrueEffects, e.Power, e.Alpha,
		e.ExpectedTrue+e.ExpectedFalse, e.ExpectedFalse, 100*e.FalseShare,
		e.InflationTwo, e.InflationFour)
}
