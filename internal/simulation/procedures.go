package simulation

import (
	"aware/internal/investing"
	"aware/internal/multcomp"
)

// Runner is a named multiple-hypothesis procedure that can be replayed over a
// Stream. Batch procedures and α-investing policies are both adapted to this
// interface so the experiment runner can treat them uniformly.
type Runner interface {
	// Name returns the label used in the report tables.
	Name() string
	// Run returns the per-hypothesis rejection decisions for one stream.
	Run(s Stream, alpha float64) ([]bool, error)
}

// batchRunner adapts a multcomp.Procedure.
type batchRunner struct {
	proc multcomp.Procedure
}

// BatchRunner wraps a static procedure (Bonferroni, BHFDR, PCER, SeqFDR, ...).
func BatchRunner(proc multcomp.Procedure) Runner { return batchRunner{proc: proc} }

// Name implements Runner.
func (b batchRunner) Name() string { return b.proc.Name() }

// Run implements Runner.
func (b batchRunner) Run(s Stream, alpha float64) ([]bool, error) {
	return b.proc.Apply(s.PValues, alpha)
}

// investingRunner replays one of the paper's named α-investing rules
// (investing.PolicyNames), built fresh for each replication because
// policies are stateful.
type investingRunner string

// Name implements Runner.
func (r investingRunner) Name() string { return string(r) }

// Run implements Runner.
func (r investingRunner) Run(s Stream, alpha float64) ([]bool, error) {
	cfg, err := investing.NewConfig(alpha)
	if err != nil {
		return nil, err
	}
	policy, err := investing.NewNamedPolicy(string(r), alpha)
	if err != nil {
		return nil, err
	}
	inv, err := investing.NewInvestor(cfg, policy)
	if err != nil {
		return nil, err
	}
	return inv.Run(s.PValues, s.Contexts)
}

// StaticRunners returns the procedures compared in Exp. 1a (Figure 3).
func StaticRunners() []Runner {
	return []Runner{
		BatchRunner(multcomp.PCER{}),
		BatchRunner(multcomp.Bonferroni{}),
		BatchRunner(multcomp.BenjaminiHochberg{}),
	}
}

// IncrementalRunners returns the procedures compared in Exp. 1b/1c/2
// (Figures 4–6): Sequential FDR plus the five α-investing rules with the
// paper's parameters.
func IncrementalRunners() []Runner {
	runners := []Runner{BatchRunner(multcomp.SequentialFDR{})}
	for _, name := range investing.PolicyNames {
		runners = append(runners, investingRunner(name))
	}
	return runners
}
