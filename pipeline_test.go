package singlingout

// End-to-end integration tests exercising several subsystems together:
// census reconstruction and linkage, a k-anonymized release audited for
// PSO with its legal verdict, and anonymization against linkage.

import (
	"math/rand"
	"testing"

	"singlingout/internal/census"
	"singlingout/internal/kanon"
	"singlingout/internal/legal"
	"singlingout/internal/pso"
	"singlingout/internal/reident"
	"singlingout/internal/synth"
)

// TestPipelineCensusAttack runs tabulate → SAT reconstruct → link and
// checks the attack chain produces re-identifications on raw tables.
func TestPipelineCensusAttack(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pop, err := synth.Population(rng, synth.PopulationConfig{N: 200, ZIPs: 3, BlocksPerZIP: 12})
	if err != nil {
		t.Fatal(err)
	}
	cfg := census.DefaultConfig()
	results, sum, err := census.Reconstruct(pop, cfg, 300000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sum.ExactFraction < 0.4 {
		t.Errorf("exact fraction = %v", sum.ExactFraction)
	}
	reg, err := synth.Registry(rng, pop, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	link := census.Linkage(pop, reg, results, cfg)
	if link.Confirmed == 0 {
		t.Error("expected confirmed re-identifications from the full pipeline")
	}
}

// TestPipelineAnonymizeThenAudit k-anonymizes a population and audits the
// release with the PSO framework, producing a legal claim — the
// anonymize-CLI flow.
func TestPipelineAnonymizeThenAudit(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	scfg := synth.SurveyConfig{Questions: 40, Skew: 0.8}
	schema := synth.SurveySchema(scfg)
	sample := synth.SurveySampler(scfg)
	qi := make([]int, len(schema.Attrs))
	for i := range qi {
		qi[i] = i
	}
	cfg := pso.Config{N: 400, Schema: schema, Sample: sample, Tau: 1e-4, Trials: 15}
	res, err := pso.Run(rng, cfg,
		pso.KAnonymity{QI: qi, K: 5, Algorithm: pso.UseMondrian},
		pso.Corner{Attr: 0, Sample: sample, WeightSamples: 1000})
	if err != nil {
		t.Fatal(err)
	}
	claim := legal.Evaluate("k-anonymity (pipeline)", []pso.Result{res})
	if claim.Verdict != legal.FailsPSO {
		t.Errorf("verdict = %v, want FailsPSO (res: %+v)", claim.Verdict, res)
	}
}

// TestPipelineAnonymizationStopsLinkage verifies the defensive flow: a
// released dataset that was Mondrian-anonymized cannot be linked the way
// the raw release can.
func TestPipelineAnonymizationStopsLinkage(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pop, err := synth.Population(rng, synth.PopulationConfig{N: 4000, ZIPs: 10, BlocksPerZIP: 10})
	if err != nil {
		t.Fatal(err)
	}
	qi := []int{
		pop.Schema.MustIndex(synth.AttrZIP),
		pop.Schema.MustIndex(synth.AttrBirthDate),
		pop.Schema.MustIndex(synth.AttrSex),
	}
	reg, err := synth.Registry(rng, pop, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := reident.Linkage(pop, reg)
	if err != nil {
		t.Fatal(err)
	}
	if raw.MatchRate() < 0.4 {
		t.Fatalf("raw linkage too weak for the test to be meaningful: %v", raw.MatchRate())
	}
	rel, err := kanon.Mondrian(pop, qi, 5, kanon.MondrianOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Every class covers >= 5 records, so no QI combination inside a
	// class can be unique in the release.
	for _, c := range rel.Classes {
		if len(c.Rows) < 5 {
			t.Fatal("release violates k")
		}
	}
}
