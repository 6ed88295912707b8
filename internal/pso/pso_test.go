package pso

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"singlingout/internal/dataset"
	"singlingout/internal/kanon"
	"singlingout/internal/synth"
)

func TestEqualityPredicate(t *testing.T) {
	p := Equality{Attr: 0, Value: 7, Weight: 0.1}
	if !p.Eval(dataset.Record{7}) || p.Eval(dataset.Record{8}) {
		t.Error("Equality evaluation wrong")
	}
	if p.NominalWeight() != 0.1 {
		t.Error("Equality weight wrong")
	}
	if p.Describe() == "" {
		t.Error("Describe empty")
	}
}

func TestIsolationCount(t *testing.T) {
	d := dataset.New(BirthdaySchema())
	for _, v := range []int64{3, 5, 5, 9} {
		d.MustAppend(dataset.Record{v})
	}
	if got := IsolationCount(Equality{Attr: 0, Value: 5}, d); got != 2 {
		t.Errorf("count = %d, want 2", got)
	}
	if !Isolates(Equality{Attr: 0, Value: 3}, d) {
		t.Error("value 3 should isolate")
	}
	if Isolates(Equality{Attr: 0, Value: 5}, d) || Isolates(Equality{Attr: 0, Value: 4}, d) {
		t.Error("5 (twice) and 4 (absent) should not isolate")
	}
}

func TestHashPrefixWeightAndDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := HashPrefix{Seed: 42, Depth: 3, Prefix: 5}
	if p.NominalWeight() != 0.125 {
		t.Errorf("weight = %v, want 1/8", p.NominalWeight())
	}
	r := dataset.Record{123, 456}
	if p.Eval(r) != p.Eval(r) {
		t.Error("hash predicate must be deterministic")
	}
	// Empirical weight over random records should match 2^-depth.
	sample := func(rng *rand.Rand) dataset.Record {
		return dataset.Record{rng.Int63(), rng.Int63()}
	}
	w := EstimateWeight(rng, p, sample, 200000)
	if math.Abs(w-0.125) > 0.01 {
		t.Errorf("empirical weight = %v, want ~0.125", w)
	}
	if (HashPrefix{Depth: 0}).NominalWeight() != 1 {
		t.Error("depth-0 prefix weight should be 1")
	}
	if !(HashPrefix{Depth: 0}).Eval(r) {
		t.Error("depth-0 prefix matches everything")
	}
}

func TestHashModWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := HashMod{Seed: 7, M: 5, Residue: 2}
	if p.NominalWeight() != 0.2 {
		t.Errorf("weight = %v, want 0.2", p.NominalWeight())
	}
	sample := func(rng *rand.Rand) dataset.Record {
		return dataset.Record{rng.Int63()}
	}
	w := EstimateWeight(rng, p, sample, 200000)
	if math.Abs(w-0.2) > 0.01 {
		t.Errorf("empirical weight = %v, want ~0.2", w)
	}
	degenerate := HashMod{M: 0}
	if degenerate.NominalWeight() != 1 || !degenerate.Eval(dataset.Record{1}) {
		t.Error("M=0 should be the always-true predicate")
	}
}

func TestAndPredicate(t *testing.T) {
	a := And{Parts: []Predicate{
		Equality{Attr: 0, Value: 1, Weight: 0.5},
		Equality{Attr: 1, Value: 2, Weight: 0.25},
	}}
	if !a.Eval(dataset.Record{1, 2}) || a.Eval(dataset.Record{1, 3}) {
		t.Error("And evaluation wrong")
	}
	if a.NominalWeight() != 0.125 {
		t.Errorf("And weight = %v, want product 0.125", a.NominalWeight())
	}
	if a.Describe() == "" {
		t.Error("Describe empty")
	}
}

func TestEstimateWeightPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EstimateWeight(rand.New(rand.NewSource(1)), Equality{}, nil, 0)
}

func TestConfigValidate(t *testing.T) {
	good := BirthdayConfig(1e-6, 10)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{},
		{N: 10, Sample: good.Sample, Tau: 0, Trials: 1},
		{N: 10, Sample: good.Sample, Tau: 0.1, Trials: 0},
		{N: 10, Sample: nil, Tau: 0.1, Trials: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
}

// TestBirthdayWorkedExample reproduces the paper's ≈37% calculation: the
// trivial attacker isolates with probability far from negligible — but its
// predicate is heavy, so it never counts as predicate singling out.
func TestBirthdayWorkedExample(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := BirthdayConfig(1e-6, 800)
	mech := Count{Q: Equality{Attr: 0, Value: 0, Weight: 1.0 / BirthdayDomain}}
	res, err := Run(rng, cfg, mech, Birthday{Attr: 0, Min: 0, Domain: BirthdayDomain})
	if err != nil {
		t.Fatal(err)
	}
	iso := res.IsolationRate()
	if math.Abs(iso-0.37) > 0.06 {
		t.Errorf("isolation rate = %v, want ≈0.37", iso)
	}
	if res.Successes != 0 {
		t.Errorf("PSO successes = %d, want 0 (predicate weight 1/365 is not negligible)", res.Successes)
	}
	if res.HeavyIsolations != res.Isolations {
		t.Errorf("all isolations should be heavy: %d vs %d", res.HeavyIsolations, res.Isolations)
	}
	if !res.PreventsPSO() {
		t.Error("count mechanism should be judged PSO-secure against the birthday attacker")
	}
}

// TestCountMechanismPSOSecure is the Theorem 2.5 experiment: no attacker in
// our suite singles out given only an exact count.
func TestCountMechanismPSOSecure(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := BirthdayConfig(1.0/(1<<20), 500)
	mech := Count{Q: Equality{Attr: 0, Value: 100, Weight: 1.0 / BirthdayDomain}}
	res, err := Run(rng, cfg, mech, Baseline{Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !res.PreventsPSO() {
		t.Errorf("count mechanism should prevent PSO: %+v", res)
	}
	if res.SuccessRate() > 0.01 {
		t.Errorf("baseline success = %v, want ≈0", res.SuccessRate())
	}
}

// TestPostProcessingPreservesPSOSecurity is the Theorem 2.6 experiment.
func TestPostProcessingPreservesPSOSecurity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := BirthdayConfig(1.0/(1<<20), 300)
	mech := PostProcess{
		Inner: Count{Q: Equality{Attr: 0, Value: 100, Weight: 1.0 / BirthdayDomain}},
		F:     func(y any) any { return y.(int) * 1000 },
		Name:  "scale-by-1000",
	}
	res, err := Run(rng, cfg, mech, Baseline{Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !res.PreventsPSO() {
		t.Errorf("post-processed count should prevent PSO: %+v", res)
	}
}

// TestPrefixDescentDefeatsComposedCounts is the Theorem 2.8 experiment:
// ℓ = ω(log n) exact count queries single out with high probability using
// a predicate of negligible nominal weight 2^-40.
func TestPrefixDescentDefeatsComposedCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	scfg := synth.SurveyConfig{Questions: 8, Skew: 0.8}
	cfg := Config{
		N:      500,
		Schema: synth.SurveySchema(scfg),
		Sample: synth.SurveySampler(scfg),
		Tau:    math.Pow(2, -30),
		Trials: 60,
	}
	mech := InteractiveCounts{Limit: 40}
	res, err := Run(rng, cfg, mech, PrefixDescent{TargetDepth: 40})
	if err != nil {
		t.Fatal(err)
	}
	if res.SuccessRate() < 0.9 {
		t.Errorf("composition attack success = %v, want >= 0.9: %+v", res.SuccessRate(), res)
	}
	if res.PreventsPSO() {
		t.Error("composed exact counts must NOT be judged PSO-secure")
	}
}

// TestDPDefeatsPrefixDescent is the Theorem 2.9 experiment: the same
// attack against ε-DP noisy counts collapses to the baseline.
func TestDPDefeatsPrefixDescent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	scfg := synth.SurveyConfig{Questions: 8, Skew: 0.8}
	cfg := Config{
		N:      500,
		Schema: synth.SurveySchema(scfg),
		Sample: synth.SurveySampler(scfg),
		Tau:    math.Pow(2, -30),
		Trials: 60,
	}
	mech := InteractiveCounts{Limit: 40, Eps: 0.1}
	res, err := Run(rng, cfg, mech, PrefixDescent{TargetDepth: 40})
	if err != nil {
		t.Fatal(err)
	}
	if res.SuccessRate() > 0.05 {
		t.Errorf("attack against DP counts = %v, want ≈0: %+v", res.SuccessRate(), res)
	}
	if !res.PreventsPSO() {
		t.Error("DP counts should be judged PSO-secure")
	}
}

func surveyPSOConfig(trials int) (Config, synth.SurveyConfig) {
	scfg := synth.SurveyConfig{Questions: 40, Skew: 0.8}
	return Config{
		N:      600,
		Schema: synth.SurveySchema(scfg),
		Sample: synth.SurveySampler(scfg),
		Tau:    1e-4,
		Trials: trials,
	}, scfg
}

func surveyQI(schema *dataset.Schema) []int {
	qi := make([]int, len(schema.Attrs))
	for i := range qi {
		qi[i] = i
	}
	return qi
}

// TestKAnonPSOAttack is the Theorem 2.10 experiment: k-anonymity admits
// predicate singling out with probability ≈ 37%.
func TestKAnonPSOAttack(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cfg, scfg := surveyPSOConfig(60)
	mech := KAnonymity{QI: surveyQI(cfg.Schema), K: 5, Algorithm: UseMondrian}
	att := KAnonClass{Sample: synth.SurveySampler(scfg), WeightSamples: 1500}
	res, err := Run(rng, cfg, mech, att)
	if err != nil {
		t.Fatal(err)
	}
	if res.SuccessRate() < 0.2 || res.SuccessRate() > 0.55 {
		t.Errorf("k-anon PSO success = %v, want ≈0.37: %+v", res.SuccessRate(), res)
	}
	if res.PreventsPSO() {
		t.Error("k-anonymity must NOT be judged PSO-secure")
	}
}

// TestCornerAttackApproaches100 is the Cohen-style boost ([12]): against
// data-dependent generalization the corner predicate isolates almost
// always.
func TestCornerAttackApproaches100(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg, scfg := surveyPSOConfig(60)
	mech := KAnonymity{QI: surveyQI(cfg.Schema), K: 5, Algorithm: UseMondrian}
	att := Corner{Attr: 0, Sample: synth.SurveySampler(scfg), WeightSamples: 1500}
	res, err := Run(rng, cfg, mech, att)
	if err != nil {
		t.Fatal(err)
	}
	if res.SuccessRate() < 0.85 {
		t.Errorf("corner attack success = %v, want ≈1: %+v", res.SuccessRate(), res)
	}
}

// failAtMechanism releases an exact count, except that its failAt-th
// Release (1-based) fails with err.
type failAtMechanism struct {
	calls  int
	failAt int
	err    error
}

func (m *failAtMechanism) Release(rng *rand.Rand, d *dataset.Dataset) (any, error) {
	m.calls++
	if m.calls == m.failAt {
		return nil, m.err
	}
	return IsolationCount(Equality{Attr: 0, Value: 1}, d), nil
}

func (m *failAtMechanism) Describe() string { return "fails one release" }

// TestRunStopsOnMechanismFailure: a failing Release ends the game with the
// mechanism's error and no further trials; an invalid config is refused.
func TestRunStopsOnMechanismFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	errBackend := errors.New("mechanism backend unavailable")
	mech := &failAtMechanism{failAt: 3, err: errBackend}
	att := Birthday{Attr: 0, Min: 0, Domain: BirthdayDomain}
	if _, err := Run(rng, BirthdayConfig(1e-6, 10), mech, att); !errors.Is(err, errBackend) {
		t.Errorf("Run error = %v, want one wrapping %v", err, errBackend)
	}
	if mech.calls != 3 {
		t.Errorf("Release called %d times, want 3: the game must stop at the failure", mech.calls)
	}
	if _, err := Run(rng, Config{}, mech, att); err == nil {
		t.Error("zero Config should fail")
	}
}

func TestAttackerErrorsAreCounted(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cfg := BirthdayConfig(1e-6, 5)
	// PrefixDescent needs a *CountOracle but gets an int.
	mech := Count{Q: Equality{Attr: 0, Value: 1, Weight: 1.0 / BirthdayDomain}}
	res, err := Run(rng, cfg, mech, PrefixDescent{TargetDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.AttackErrors != 5 {
		t.Errorf("AttackErrors = %d, want 5", res.AttackErrors)
	}
}

func TestCountOracleLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := dataset.New(BirthdaySchema())
	d.MustAppend(dataset.Record{1})
	y, err := InteractiveCounts{Limit: 2}.Release(rng, d)
	if err != nil {
		t.Fatal(err)
	}
	o := y.(*CountOracle)
	if o.N() != 1 {
		t.Errorf("N = %d", o.N())
	}
	p := Equality{Attr: 0, Value: 1}
	if c, err := o.Count(p); err != nil || c != 1 {
		t.Errorf("count = %v, %v", c, err)
	}
	if _, err := o.Count(p); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Count(p); err == nil {
		t.Error("limit should be enforced")
	}
	if o.used != 2 {
		t.Errorf("used = %d", o.used)
	}
	if _, err := (InteractiveCounts{}).Release(rng, d); err == nil {
		t.Error("zero limit should be rejected at release")
	}
}

func TestBaselineValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	if _, err := (Baseline{Depth: 0}).Attack(rng, nil, 10); err == nil {
		t.Error("depth 0 should fail")
	}
	if _, err := (Baseline{Depth: 64}).Attack(rng, nil, 10); err == nil {
		t.Error("depth 64 should fail")
	}
	if _, err := (Birthday{Domain: 0}).Attack(rng, nil, 10); err == nil {
		t.Error("zero domain should fail")
	}
	if _, err := (PrefixDescent{TargetDepth: 0}).Attack(rng, &CountOracle{}, 10); err == nil {
		t.Error("zero target depth should fail")
	}
}

func TestKAnonClassAttackerErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := KAnonClass{Sample: BirthdaySampler()}
	if _, err := a.Attack(rng, 42, 10); err == nil {
		t.Error("wrong release type should fail")
	}
	empty := &kanon.Release{K: 5}
	if _, err := a.Attack(rng, empty, 10); err == nil {
		t.Error("empty release should fail")
	}
	c := Corner{Attr: 3, Sample: BirthdaySampler()}
	if _, err := c.Attack(rng, 42, 10); err == nil {
		t.Error("wrong release type should fail")
	}
	if _, err := c.Attack(rng, empty, 10); err == nil {
		t.Error("empty release should fail")
	}
}

func TestCornerNeedsQIAttr(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	rel := &kanon.Release{
		K:       2,
		QI:      []int{1},
		Classes: []kanon.Class{{Cells: []kanon.ValueSet{kanon.Interval{Lo: 0, Hi: 5}}, Rows: []int{0, 1}}},
	}
	c := Corner{Attr: 0, Sample: BirthdaySampler(), WeightSamples: 10}
	if _, err := c.Attack(rng, rel, 2); err == nil {
		t.Error("attr outside QI should fail")
	}
}

func TestResultString(t *testing.T) {
	r := Result{Mechanism: "m", Attacker: "a", Trials: 10, Successes: 3, Isolations: 4, BaselineRate: 0.01}
	if r.String() == "" {
		t.Error("empty report row")
	}
	if r.SuccessRate() != 0.3 || r.IsolationRate() != 0.4 {
		t.Error("rates wrong")
	}
	var zero Result
	if zero.SuccessRate() != 0 || zero.IsolationRate() != 0 {
		t.Error("zero-trial rates should be 0")
	}
}

func TestMechanismDescriptions(t *testing.T) {
	q := Equality{Attr: 0, Value: 1, Weight: 0.1}
	for _, m := range []Mechanism{
		Count{Q: q},
		PostProcess{Inner: Count{Q: q}, Name: "f"},
		InteractiveCounts{Limit: 3},
		InteractiveCounts{Limit: 3, Eps: 1},
		KAnonymity{K: 5},
		KAnonymity{K: 5, Algorithm: UseFullDomain},
	} {
		if m.Describe() == "" {
			t.Errorf("%T: empty description", m)
		}
	}
	for _, a := range []Attacker{
		Baseline{Depth: 10}, Birthday{Domain: 365}, PrefixDescent{TargetDepth: 10},
		KAnonClass{}, Corner{},
	} {
		if a.Describe() == "" {
			t.Errorf("%T: empty description", a)
		}
	}
}

func TestKAnonymityMechanismFullDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	scfg := synth.SurveyConfig{Questions: 3, Skew: 0.7}
	d := dataset.New(synth.SurveySchema(scfg))
	sample := synth.SurveySampler(scfg)
	for i := 0; i < 200; i++ {
		d.MustAppend(sample(rng))
	}
	h, err := dataset.NewIntRangeHierarchy(0, synth.SurveyRegDateDomain-1, 1<<10, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	binH, err := dataset.NewIntRangeHierarchy(0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	mech := KAnonymity{
		QI:          []int{0, 1, 2, 3},
		K:           5,
		Algorithm:   UseFullDomain,
		Hierarchies: map[int]*dataset.IntRangeHierarchy{0: h, 1: binH, 2: binH, 3: binH},
		MaxSuppress: 40,
	}
	y, err := mech.Release(rng, d)
	if err != nil {
		t.Fatal(err)
	}
	rel := y.(*kanon.Release)
	if !rel.IsKAnonymous() {
		t.Error("full-domain release not k-anonymous")
	}
	if _, err := (KAnonymity{Algorithm: Anonymizer(9)}).Release(rng, d); err == nil {
		t.Error("unknown anonymizer should fail")
	}
}

func TestIsolationProbMatchesBaselineRate(t *testing.T) {
	// The harness's baseline column must equal the closed form used in E5.
	// Hash predicates need a high-min-entropy domain (the paper's caveat
	// about the data distribution), so this uses survey records, which are
	// distinct with overwhelming probability.
	rng := rand.New(rand.NewSource(18))
	scfg := synth.SurveyConfig{Questions: 4, Skew: 0.7}
	cfg := Config{
		N:      365,
		Schema: synth.SurveySchema(scfg),
		Sample: synth.SurveySampler(scfg),
		Tau:    1.0 / 365,
		Trials: 1500,
	}
	mech := Count{Q: Equality{Attr: 0, Value: 1, Weight: 1.0 / synth.SurveyRegDateDomain}}
	res, err := Run(rng, cfg, mech, Baseline{Depth: 9}) // 2^-9 ≈ 1/512, weight ≤ τ=1/365
	if err != nil {
		t.Fatal(err)
	}
	// Successes should be near IsolationProb(365, 2^-9) ≈ 0.35.
	want := 365.0 * math.Pow(2, -9) * math.Pow(1-math.Pow(2, -9), 364)
	if math.Abs(res.SuccessRate()-want) > 0.05 {
		t.Errorf("baseline attacker success = %v, closed form %v", res.SuccessRate(), want)
	}
	if math.Abs(res.BaselineRate-want) > 0.01 {
		t.Errorf("reported baseline %v should match closed form %v", res.BaselineRate, want)
	}
}

// TestKAnonClassAttackerOnFullDomainRelease: the class attack is agnostic
// to cell representation, so it also runs against full-domain releases
// whose cells are hierarchy groups.
func TestKAnonClassAttackerOnFullDomainRelease(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	scfg := synth.SurveyConfig{Questions: 10, Skew: 0.8}
	schema := synth.SurveySchema(scfg)
	sample := synth.SurveySampler(scfg)
	d := dataset.New(schema)
	for i := 0; i < 300; i++ {
		d.MustAppend(sample(rng))
	}
	regH, err := dataset.NewIntRangeHierarchy(0, synth.SurveyRegDateDomain-1, 1<<8, 1<<14, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	binH, err := dataset.NewIntRangeHierarchy(0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	hs := map[int]*dataset.IntRangeHierarchy{0: regH}
	qi := []int{0}
	for q := 1; q <= scfg.Questions; q++ {
		hs[q] = binH
		qi = append(qi, q)
	}
	mech := KAnonymity{QI: qi, K: 5, Algorithm: UseFullDomain, Hierarchies: hs, MaxSuppress: 60}
	y, err := mech.Release(rng, d)
	if err != nil {
		t.Fatal(err)
	}
	att := KAnonClass{Sample: sample, WeightSamples: 800}
	p, err := att.Attack(rng, y, d.Len())
	if err != nil {
		t.Fatal(err)
	}
	if p.NominalWeight() <= 0 || p.NominalWeight() > 1 {
		t.Errorf("weight = %v", p.NominalWeight())
	}
	// The corner attack, in contrast, requires data-dependent interval
	// cells and must refuse a full-domain release.
	corner := Corner{Attr: 0, Sample: sample, WeightSamples: 100}
	if _, err := corner.Attack(rng, y, d.Len()); err == nil {
		t.Error("corner attack should reject hierarchy-group cells")
	}
}

// EstimateWeight Monte-Carlo-estimates w_D(p) = Pr_{x~D}[p(x)=1] with the
// given number of samples.
func EstimateWeight(rng *rand.Rand, p Predicate, sample func(*rand.Rand) dataset.Record, samples int) float64 {
	if samples <= 0 {
		panic("pso: EstimateWeight needs positive sample count")
	}
	hits := 0
	for i := 0; i < samples; i++ {
		if p.Eval(sample(rng)) {
			hits++
		}
	}
	return float64(hits) / float64(samples)
}
