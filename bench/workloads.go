package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"time"

	"singlingout/internal/census"
	"singlingout/internal/dataset"
	"singlingout/internal/dist"
	"singlingout/internal/kanon"
	"singlingout/internal/pso"
	"singlingout/internal/query"
	"singlingout/internal/recon"
	"singlingout/internal/synth"
)

// sizes fixes how much work each operation of each workload does. The
// benchmark runs defaultSizes; the test shrinks them.
type sizes struct {
	kanonScale     int // pso-kanon: n = kanonScale·k
	kanonQuestions int // pso-kanon: survey questions (twice as many at k = 10)
	composeN       int // pso-compose: dataset size
	lpN            int // lp-recon: dataset size n; m = 4n queries
	censusN        int // census-sat: persons per population
	censusBlocks   int // census-sat: blocks per population
	qsN            int // qserver-*: dataset size
	qsBatch        int // qserver-*: queries per request
	qsRound        int // qserver-*: requests per client per round
	qsEpoch        int // qserver-fresh: rounds one server serves before it is replaced
	qsPool         int // qserver-cached: distinct batches the clients repeat
	qsWarm         int // qserver-fresh: untimed warm-up requests in set-up
}

func defaultSizes() sizes {
	return sizes{
		kanonScale:     80,
		kanonQuestions: 40,
		composeN:       500,
		lpN:            48,
		censusN:        160,
		censusBlocks:   16,
		qsN:            256,
		qsBatch:        32,
		qsRound:        200,
		qsEpoch:        5,
		qsPool:         200,
		qsWarm:         200,
	}
}

// specs lists the workloads in the order -workload all runs them.
var specs = []spec{
	{name: "pso-kanon", setup: setupKanon},
	{name: "pso-compose", setup: setupCompose},
	{name: "lp-recon", setup: setupLP},
	{name: "census-sat", setup: setupCensus},
	{name: "qserver-fresh", server: true, setup: setupFresh},
	{name: "qserver-cached", server: true, setup: setupCached},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

func specNames() []string {
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.name
	}
	return names
}

// psoArm is one (mechanism, attacker) configuration of a PSO game and the
// outcomes of its trials.
type psoArm struct {
	label string
	cfg   pso.Config
	mech  pso.Mechanism
	att   pso.Attacker

	trials, successes int
	baseline          float64 // Σ per-trial baseline success probability
}

// psoGame runs the PSO security game of Definition 2.4, one trial per arm
// per round, each trial one pso.Run call. In a traced run the dataset
// draws, the release and the attack are spans under the trial.
type psoGame struct {
	r    *run
	rng  *rand.Rand
	arms []*psoArm
	// verify holds the workload's own checks of the pooled outcomes.
	verify func(g *psoGame) []string

	trial *span // the running trial (traced runs)
	input *span // the trial's open dataset-draw span
	// Work counts of traced runs.
	records, weightDraws, classes int64
}

func (g *psoGame) round(r *run) error {
	for _, a := range g.arms {
		g.trial = r.tr.begin(stHarness, nil)
		t0 := time.Now()
		res, err := pso.Run(g.rng, a.cfg, a.mech, a.att)
		d := time.Since(t0)
		g.input.end()
		g.input = nil
		g.trial.end()
		if err != nil {
			return fmt.Errorf("%s: %w", a.label, err)
		}
		a.trials += res.Trials
		a.successes += res.Successes
		if res.AttackErrors > 0 {
			r.fail()
			continue
		}
		a.baseline += res.BaselineRate
		r.op(d)
	}
	return nil
}

func (g *psoGame) check() []string { return g.verify(g) }

func (g *psoGame) layerCounts() map[string]int64 {
	return map[string]int64{"synth.records": g.records, "pso.weight_draws": g.weightDraws, "kanon.classes": g.classes}
}

func (g *psoGame) close() error { return nil }

// addArm registers an arm. In a traced run the dataset sampler opens the
// trial's input span on its first draw (Release closes it), and the
// attacker's own sampler is counted: its draws are the Monte Carlo
// predicate-weight estimates.
func (g *psoGame) addArm(label string, cfg pso.Config, mech pso.Mechanism, att pso.Attacker) {
	cfg.Trials = 1
	if g.r.traced() {
		sample := cfg.Sample
		cfg.Sample = func(rng *rand.Rand) dataset.Record {
			if g.input == nil {
				g.input = g.r.tr.begin(stInput, g.trial)
			}
			g.records++
			return sample(rng)
		}
		if ka, ok := att.(pso.KAnonClass); ok {
			s := ka.Sample
			ka.Sample = func(rng *rand.Rand) dataset.Record {
				g.weightDraws++
				return s(rng)
			}
			att = ka
		}
	}
	g.arms = append(g.arms, &psoArm{label: label, cfg: cfg, mech: gameMech{g, mech}, att: gameAttacker{g, att}})
}

// gameMech times Release as the curator stage.
type gameMech struct {
	g *psoGame
	pso.Mechanism
}

func (m gameMech) Release(rng *rand.Rand, d *dataset.Dataset) (any, error) {
	m.g.input.end()
	m.g.input = nil
	sp := m.g.r.tr.begin(stCurator, m.g.trial)
	y, err := m.Mechanism.Release(rng, d)
	sp.end()
	if rel, ok := y.(*kanon.Release); ok {
		m.g.classes += int64(len(rel.Classes))
	}
	return y, err
}

// gameAttacker times Attack as the adversary stage.
type gameAttacker struct {
	g *psoGame
	pso.Attacker
}

func (a gameAttacker) Attack(rng *rand.Rand, released any, n int) (pso.Predicate, error) {
	sp := a.g.r.tr.begin(stAdversary, a.g.trial)
	p, err := a.Attacker.Attack(rng, released, n)
	sp.end()
	return p, err
}

func pooled(arms []*psoArm) (trials, successes int, baseline float64) {
	for _, a := range arms {
		trials += a.trials
		successes += a.successes
		baseline += a.baseline
	}
	return trials, successes, baseline / float64(max(trials, 1))
}

// thm210Rate is Theorem 2.10's success rate of the class ∧ 1/k′ attack:
// (1 − 1/k′)^{k′−1} ≈ 1/e.
const thm210Rate = 1 / math.E

// setupKanon builds the Theorem 2.10 game of experiment E10 at its quick
// size: Mondrian k-anonymity against the class ∧ 1/k′ hash attacker at
// k ∈ {2, 5, 10}, n = 80·k, 40 survey questions (80 at k = 10), τ = 1e-4.
// The attacker keeps its default Monte Carlo weight budget. The warm-up is
// one k = 2 trial.
func setupKanon(r *run, seed int64) (workload, error) {
	g := &psoGame{r: r, rng: rand.New(rand.NewSource(seed)), verify: verifyKanon}
	for _, k := range []int{2, 5, 10} {
		q := r.sz.kanonQuestions
		if k >= 10 {
			q *= 2
		}
		scfg := synth.SurveyConfig{Questions: q, Skew: 0.8}
		schema := synth.SurveySchema(scfg)
		qi := make([]int, len(schema.Attrs))
		for i := range qi {
			qi[i] = i
		}
		g.addArm(fmt.Sprintf("k=%d", k),
			pso.Config{N: r.sz.kanonScale * k, Schema: schema, Sample: synth.SurveySampler(scfg), Tau: 1e-4},
			pso.KAnonymity{QI: qi, K: k, Algorithm: pso.UseMondrian},
			pso.KAnonClass{Sample: synth.SurveySampler(scfg)})
	}
	a := g.arms[0]
	if _, err := pso.Run(g.rng, a.cfg, a.mech, a.att); err != nil {
		return nil, err
	}
	return g, nil
}

func verifyKanon(g *psoGame) []string {
	var c checks
	trials, succ, base := pooled(g.arms)
	c.expect(trials > 0, "pso-kanon: no trials ran")
	c.expect(binomPlausible(succ, trials, thm210Rate),
		"pso-kanon: pooled PSO success %d/%d is implausible under Thm 2.10's %.3f (binomial tail < %g)", succ, trials, thm210Rate, implausible)
	// The attack must beat the baseline whenever the run held enough trials
	// for success at the theorem's rate to show it.
	powered := binomUpper(int(float64(trials)*thm210Rate), trials, base) < beatsBaseline
	c.expect(!powered || binomUpper(succ, trials, base) < beatsBaseline,
		"pso-kanon: pooled PSO success %d/%d does not beat the baseline rate %.3g (binomial tail >= %g)", succ, trials, base, beatsBaseline)
	return c
}

// setupCompose builds the Theorem 2.8/2.9 game: the prefix-descent attack
// (target depth 40, so 40 adaptive count queries) against exact counts and
// against ε = 1 and ε = 0.1 Laplace counts; n = 500, 8 survey questions,
// τ = 2^-30. The warm-up is one round.
func setupCompose(r *run, seed int64) (workload, error) {
	g := &psoGame{r: r, rng: rand.New(rand.NewSource(seed)), verify: verifyCompose}
	scfg := synth.SurveyConfig{Questions: 8, Skew: 0.8}
	att := pso.PrefixDescent{TargetDepth: 40}
	for _, eps := range []float64{0, 1, 0.1} {
		g.addArm(fmt.Sprintf("eps=%g", eps),
			pso.Config{N: r.sz.composeN, Schema: synth.SurveySchema(scfg), Sample: synth.SurveySampler(scfg), Tau: math.Pow(2, -30)},
			pso.InteractiveCounts{Limit: att.Queries(), Eps: eps},
			att)
	}
	if err := g.round(r); err != nil {
		return nil, err
	}
	return g, nil
}

func verifyCompose(g *psoGame) []string {
	var c checks
	exact, dp := g.arms[0], g.arms[2]
	c.expect(exact.trials > 0 && dp.trials > 0, "pso-compose: no trials ran")
	c.expect(rate(exact.successes, exact.trials) >= 0.95,
		"pso-compose: exact-count arm succeeded %d/%d, Thm 2.8 wants >= 95%%", exact.successes, exact.trials)
	c.expect(rate(dp.successes, dp.trials) <= 0.02,
		"pso-compose: eps=0.1 arm succeeded %d/%d, Thm 2.9 wants <= 2%%", dp.successes, dp.trials)
	return c
}

func rate(k, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(k) / float64(n)
}

// lpC are the noise levels of lp-recon: answers carry uniform error of up
// to α = c·√n.
var lpC = []float64{0, 0.25, 0.5, 1, 2}

// lpRecon is Dinur–Nissim LP decoding (Theorem 1.1): each round draws a
// dataset and m = 4n random subset queries, builds one recon.Decoder and
// decodes the bounded-noise answers at every c in lpC, warm-starting each
// decode from the previous one. An operation is one decode: answering the
// m queries plus the LP solve.
type lpRecon struct {
	rng     *rand.Rand
	hamming [][]float64 // per c, the Hamming error of every decode
	records int64
}

func setupLP(r *run, seed int64) (workload, error) {
	w := &lpRecon{rng: rand.New(rand.NewSource(seed)), hamming: make([][]float64, len(lpC))}
	if err := w.round(r); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *lpRecon) round(r *run) error {
	n := r.sz.lpN
	root := r.tr.begin(stHarness, nil)
	defer root.end()
	in := r.tr.begin(stInput, root)
	x := synth.BinaryDataset(w.rng, n, 0.5)
	qs := query.RandomSubsets(w.rng, n, 4*n)
	in.end()
	w.records += int64(n)
	sp := r.tr.begin(stAdversary, root)
	dec, err := recon.NewDecoder(n, qs, recon.L1Slack)
	sp.end()
	if err != nil {
		return err
	}
	ctx := context.Background()
	for i, c := range lpC {
		op := r.tr.begin(stHarness, root)
		t0 := time.Now()
		cur := r.tr.begin(stCurator, op)
		answers, err := (&query.BoundedNoise{X: x, Alpha: c * math.Sqrt(float64(n)), Rng: w.rng}).Answer(ctx, qs)
		cur.end()
		if err != nil {
			op.end()
			return err
		}
		adv := r.tr.begin(stAdversary, op)
		got, _, err := dec.Decode(ctx, answers)
		adv.end()
		d := time.Since(t0)
		if err != nil {
			r.fail()
			op.end()
			continue
		}
		r.op(d)
		w.hamming[i] = append(w.hamming[i], recon.HammingError(x, got))
		op.end()
	}
	return nil
}

func (w *lpRecon) check() []string {
	var c checks
	for _, e := range w.hamming[0] {
		c.expect(e == 0, "lp-recon: Hamming error %.3f at c=0, want 0", e)
	}
	e25, e2 := dist.Mean(w.hamming[1]), dist.Mean(w.hamming[4])
	c.expect(len(w.hamming[1]) > 0 && e25 < 0.05, "lp-recon: mean Hamming error %.3f at c=0.25, want < 0.05 (Thm 1.1: o(√n) noise is blatantly non-private)", e25)
	c.expect(len(w.hamming[4]) > 0 && e2 > 0.25, "lp-recon: mean Hamming error %.3f at c=2, want > 0.25", e2)
	return c
}

func (w *lpRecon) layerCounts() map[string]int64 { return map[string]int64{"synth.records": w.records} }

func (w *lpRecon) close() error { return nil }

// censusSat is the 2010-Census reconstruction pipeline: each round draws a
// population, publishes its block tables and reconstructs every block with
// the SAT attack on parallelism workers. An operation is one population:
// tabulation plus reconstruction.
type censusSat struct {
	rng    *rand.Rand
	cfg    census.Config
	popCfg synth.PopulationConfig

	persons, exact int
	// published and solved keep every population's tables and
	// reconstructions for check.
	published [][]census.BlockTables
	solved    [][]census.BlockResult
	records   int64
}

// censusConflicts is the per-block SAT conflict budget.
const censusConflicts = 500_000

func setupCensus(r *run, seed int64) (workload, error) {
	w := &censusSat{
		rng:    rand.New(rand.NewSource(seed)),
		cfg:    census.DefaultConfig(),
		popCfg: synth.PopulationConfig{N: r.sz.censusN, ZIPs: 1, BlocksPerZIP: r.sz.censusBlocks},
	}
	if err := w.round(r); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *censusSat) round(r *run) error {
	root := r.tr.begin(stHarness, nil)
	defer root.end()
	in := r.tr.begin(stInput, root)
	pop, err := synth.Population(w.rng, w.popCfg)
	if err != nil {
		in.end()
		return err
	}
	truth := census.TrueTuples(pop, w.cfg)
	in.end()
	w.records += int64(pop.Len())
	t0 := time.Now()
	cur := r.tr.begin(stCurator, root)
	tables := census.Tabulate(pop, w.cfg)
	cur.end()
	adv := r.tr.begin(stAdversary, root)
	results, sum, err := census.ReconstructTables(tables, truth, w.cfg, censusConflicts, parallelism)
	adv.end()
	d := time.Since(t0)
	if err != nil {
		return err
	}
	w.persons += sum.Persons
	w.exact += sum.ExactRecords
	w.published = append(w.published, tables)
	w.solved = append(w.solved, results)
	if sum.Solved < sum.Blocks {
		r.fail()
		return nil
	}
	r.op(d)
	return nil
}

// tabulate publishes one block's tables from reconstructed tuples, the same
// way census.Tabulate does from the true population.
func tabulate(block int64, tuples []census.Tuple, cfg census.Config) census.BlockTables {
	bt := census.BlockTables{Block: block, SexAge: map[[2]int]int{}, RaceEt: map[[2]int]int{}, SexRc: map[[2]int]int{}}
	for _, t := range tuples {
		bt.Total++
		bt.SexAge[[2]int{t.Sex, t.AgeBucket}]++
		bt.RaceEt[[2]int{t.Race, t.Ethnicity}]++
		bt.SexRc[[2]int{t.Sex, t.Race}]++
	}
	return bt
}

func (w *censusSat) check() []string {
	var c checks
	for p, results := range w.solved {
		for i, res := range results {
			c.expect(!res.Solved || reflect.DeepEqual(tabulate(res.Block, res.Tuples, w.cfg), w.published[p][i]),
				"census-sat: population %d block %d: reconstruction does not re-tabulate to its published tables", p, res.Block)
		}
	}
	f := rate(w.exact, w.persons)
	c.expect(w.persons > 0 && f >= 0.45, "census-sat: exact fraction %.3f (%d/%d persons), want >= 0.45", f, w.exact, w.persons)
	return c
}

func (w *censusSat) layerCounts() map[string]int64 {
	return map[string]int64{"synth.records": w.records}
}

func (w *censusSat) close() error { return nil }

// Thresholds of the binomial output checks. A check that fails by chance
// once in a million runs never fails in practice; one that separates the
// attack from the baseline at 1e-3 still has a wide margin at the sizes
// the benchmark runs.
const (
	implausible   = 1e-6
	beatsBaseline = 1e-3
)

// binomPlausible reports whether k successes in n trials are consistent
// with success probability p: neither tail is below implausible.
func binomPlausible(k, n int, p float64) bool {
	return binomUpper(k, n, p) >= implausible && binomLower(k, n, p) >= implausible
}

// binomUpper returns P(X >= k) for X ~ Binomial(n, p).
func binomUpper(k, n int, p float64) float64 {
	s := 0.0
	for i := k; i <= n; i++ {
		s += binomPMF(i, n, p)
	}
	return math.Min(s, 1)
}

// binomLower returns P(X <= k) for X ~ Binomial(n, p).
func binomLower(k, n int, p float64) float64 {
	s := 0.0
	for i := 0; i <= k && i <= n; i++ {
		s += binomPMF(i, n, p)
	}
	return math.Min(s, 1)
}

func binomPMF(k, n int, p float64) float64 {
	switch {
	case p <= 0:
		if k == 0 {
			return 1
		}
		return 0
	case p >= 1:
		if k == n {
			return 1
		}
		return 0
	}
	ln, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return math.Exp(ln - lk - lnk + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p))
}
