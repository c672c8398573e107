package simulation

import (
	"fmt"
	"math/rand"

	"aware/internal/census"
	"aware/internal/dataset"
	"aware/internal/investing"
)

// Exp2Config parameterizes Exp. 2 (Figure 6): replaying user-study workflows
// over down-sampled copies of the (synthetic) Census dataset and its
// randomized variant.
type Exp2Config struct {
	// Rows is the size of the full census table.
	Rows int
	// Hypotheses is the number of workflow steps (115 in the paper).
	Hypotheses int
	// Randomized selects the shuffled census in which every discovery is
	// false (Figure 6 d–e) instead of the real one (Figure 6 a–c).
	Randomized bool
	// Replications is the number of independent down-samples per fraction.
	Replications int
	// Seed drives data generation, workflow generation and sampling.
	Seed int64
}

// Exp2 builds the census (or randomized census), generates the workflow,
// labels ground truth with Bonferroni on the full data, and then replays the
// workflow on down-samples of the data at each sample fraction, reporting the
// same metrics as the synthetic experiments.
func Exp2(cfg Exp2Config) ([]Measurement, error) {
	if cfg.Rows <= 0 {
		cfg.Rows = 30000
	}
	if cfg.Hypotheses <= 0 {
		cfg.Hypotheses = 115
	}
	if cfg.Replications <= 0 {
		cfg.Replications = 20
	}
	full, err := census.Generate(census.Config{Rows: cfg.Rows, Seed: cfg.Seed, SignalStrength: 1})
	if err != nil {
		return nil, fmt.Errorf("simulation: generating census: %w", err)
	}
	if cfg.Randomized {
		full, err = census.Randomize(full, cfg.Seed+1)
		if err != nil {
			return nil, fmt.Errorf("simulation: randomizing census: %w", err)
		}
	}
	workflow, err := census.GenerateWorkflow(full, census.WorkflowConfig{
		Hypotheses:    cfg.Hypotheses,
		Seed:          cfg.Seed + 2,
		MaxChainDepth: 3,
	})
	if err != nil {
		return nil, fmt.Errorf("simulation: generating workflow: %w", err)
	}
	// Ground truth: Bonferroni on the full-size data (Section 7.3).
	trueNull, err := census.GroundTruth(full, workflow, PaperAlpha)
	if err != nil {
		return nil, fmt.Errorf("simulation: labelling ground truth: %w", err)
	}

	var out []Measurement
	for i, fraction := range SampleFractions {
		source := censusStreamSource(full, workflow, trueNull, fraction)
		ms, err := RunPoint(source, IncrementalRunners(), PaperAlpha, cfg.Replications, cfg.Seed+100+int64(i)*1000, fraction)
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

// censusStreamSource down-samples the census to the given fraction and
// evaluates the workflow on the sample, producing one Stream per replication.
func censusStreamSource(full *dataset.Table, workflow *census.Workflow, trueNull []bool, fraction float64) StreamSource {
	return func(rng *rand.Rand) (Stream, error) {
		sample, err := full.Sample(rng, fraction)
		if err != nil {
			return Stream{}, err
		}
		results, err := census.EvaluateWorkflow(sample, workflow)
		if err != nil {
			return Stream{}, err
		}
		stream := Stream{
			PValues:  census.PValues(results),
			TrueNull: append([]bool(nil), trueNull...),
			Contexts: make([]investing.TestContext, len(results)),
		}
		for i, r := range results {
			stream.Contexts[i] = investing.TestContext{
				SupportSize:    r.SupportSize,
				PopulationSize: r.PopulationSize,
			}
		}
		return stream, nil
	}
}
