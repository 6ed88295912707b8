package pso

import (
	"fmt"
	"math"
	"math/rand"

	"singlingout/internal/dataset"
	"singlingout/internal/dist"
	"singlingout/internal/obs"
)

// Metrics recorded into obs.Default() by the PSO game harness.
var (
	mTrials       = obs.Default().Counter("pso.trials")
	mIsolations   = obs.Default().Counter("pso.isolations")
	mSuccesses    = obs.Default().Counter("pso.successes")
	mAttackErrors = obs.Default().Counter("pso.attack_errors")
	mWeightDraws  = obs.Default().Counter("pso.weight_draws") // records drawn for Monte Carlo predicate weights
	mTrialNS      = obs.Default().Histogram("pso.trial_ns")
)

// Config describes one PSO security experiment (the game of Definition
// 2.4): datasets of size N drawn i.i.d. from Sample, predicates judged
// against the negligible-weight threshold Tau.
type Config struct {
	// N is the dataset size.
	N int
	// Schema is the record schema of sampled records.
	Schema *dataset.Schema
	// Sample draws one record from the distribution D.
	Sample func(*rand.Rand) dataset.Record
	// Tau is the concrete negligible-weight threshold τ: a trial counts as
	// a PSO success only if the output predicate's nominal weight is ≤ Tau.
	Tau float64
	// Trials is the number of independent repetitions.
	Trials int
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.N <= 0:
		return fmt.Errorf("pso: config N = %d", c.N)
	case c.Sample == nil:
		return fmt.Errorf("pso: config needs a sampler")
	case !(c.Tau > 0 && c.Tau < 1):
		return fmt.Errorf("pso: config Tau = %v outside (0,1)", c.Tau)
	case c.Trials <= 0:
		return fmt.Errorf("pso: config Trials = %d", c.Trials)
	}
	return nil
}

// Result aggregates a PSO experiment.
type Result struct {
	Mechanism string
	Attacker  string
	Trials    int
	// Successes counts trials where the predicate isolated AND had
	// nominal weight ≤ τ — predicate singling out per Definition 2.4.
	Successes int
	// Isolations counts trials where the predicate isolated, regardless
	// of weight (Definition 2.1 alone).
	Isolations int
	// HeavyIsolations counts isolations by predicates heavier than τ
	// (e.g. the Birthday attacker's 1/n-weight predicates).
	HeavyIsolations int
	// AttackErrors counts trials whose attack could not produce a
	// predicate (treated as failures).
	AttackErrors int
	// MeanNominalWeight averages the nominal weights of output predicates.
	MeanNominalWeight float64
	// BaselineRate is the apples-to-apples trivial success rate: the
	// probability n·w̄·(1-w̄)^(n-1) that a release-independent predicate of
	// the attacker's own mean nominal weight w̄ isolates. An attack only
	// demonstrates predicate singling out by beating this rate.
	BaselineRate float64
}

// SuccessRate returns the PSO success frequency.
func (r Result) SuccessRate() float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.Successes) / float64(r.Trials)
}

// IsolationRate returns the frequency of isolation irrespective of weight.
func (r Result) IsolationRate() float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.Isolations) / float64(r.Trials)
}

// PreventsPSO applies the experiment's decision rule: the mechanism is
// judged to prevent predicate singling out if the attacker's PSO success
// rate does not significantly exceed the trivial baseline at the same
// predicate weight (factor-5 margin plus a three-sigma sampling band plus
// an absolute 1% floor).
func (r Result) PreventsPSO() bool {
	sigma := 3 * math.Sqrt(r.BaselineRate*(1-r.BaselineRate)/float64(max(1, r.Trials)))
	return r.SuccessRate() <= 5*r.BaselineRate+sigma+0.01
}

// String renders the result as a one-line report row.
func (r Result) String() string {
	return fmt.Sprintf("%-38s vs %-44s PSO %5.1f%%  isolate %5.1f%%  heavy %4d  baseline %.2g",
		r.Mechanism, r.Attacker, 100*r.SuccessRate(), 100*r.IsolationRate(), r.HeavyIsolations, r.BaselineRate)
}

// Run plays the PSO game Trials times: draw x ~ D^n, release y = M(x),
// attack p = A(y), and score isolation and weight.
func Run(rng *rand.Rand, cfg Config, m Mechanism, a Attacker) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	res := Result{
		Mechanism: m.Describe(),
		Attacker:  a.Describe(),
		Trials:    cfg.Trials,
	}
	var sumNominal float64
	for trial := 0; trial < cfg.Trials; trial++ {
		mTrials.Add(1)
		sp := mTrialNS.Span()
		d := dataset.New(cfg.Schema)
		for i := 0; i < cfg.N; i++ {
			d.MustAppend(cfg.Sample(rng))
		}
		released, err := m.Release(rng, d)
		if err != nil {
			sp.End()
			return Result{}, fmt.Errorf("pso: mechanism failed: %w", err)
		}
		p, err := a.Attack(rng, released, cfg.N)
		if err != nil {
			res.AttackErrors++
			mAttackErrors.Add(1)
			sp.End()
			continue
		}
		w := p.NominalWeight()
		sumNominal += w
		if Isolates(p, d) {
			res.Isolations++
			mIsolations.Add(1)
			if w <= cfg.Tau {
				res.Successes++
				mSuccesses.Add(1)
			} else {
				res.HeavyIsolations++
			}
		}
		sp.End()
	}
	if n := cfg.Trials - res.AttackErrors; n > 0 {
		res.MeanNominalWeight = sumNominal / float64(n)
	}
	res.BaselineRate = dist.IsolationProb(cfg.N, res.MeanNominalWeight)
	return res, nil
}
