package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"singlingout/internal/diffix"
	"singlingout/internal/dp"
	"singlingout/internal/par"
	"singlingout/internal/query"
	"singlingout/internal/recon"
	"singlingout/internal/synth"
)

// E01Exhaustive reproduces Theorem 1.1(i) at small n: with answer error
// alpha well below n, the exhaustive attack reconstructs nearly the whole
// database; as alpha grows toward a constant fraction of n, error climbs.
// Grid points run concurrently on the shared pool; each derives its RNG
// from (seed, point index), so the table is identical at any worker count.
func E01Exhaustive(ctx context.Context, seed int64, quick bool) (*Table, error) {
	n, queries, trials := 16, 300, 5
	if quick {
		n, queries, trials = 12, 120, 3
	}
	t := &Table{
		ID:     "E01",
		Title:  fmt.Sprintf("exhaustive reconstruction, n=%d, m=%d random subset queries", n, queries),
		Header: []string{"alpha", "alpha/n", "mean Hamming error", "reconstructed ≥95%?"},
		Notes:  []string{"Thm 1.1(i): any candidate consistent within alpha disagrees on O(alpha) entries"},
	}
	var alphas []float64
	seen := map[float64]bool{}
	for _, alpha := range []float64{0, 1, 2, float64(n) / 4, float64(n) / 2, 3 * float64(n) / 4, float64(n)} {
		if !seen[alpha] {
			seen[alpha] = true
			alphas = append(alphas, alpha)
		}
	}
	errs := make([]float64, len(alphas))
	err := par.ForEach(Workers(), len(alphas), func(i int) error {
		rng := par.RNG(seed, i)
		alpha := alphas[i]
		meanErr := 0.0
		for trial := 0; trial < trials; trial++ {
			x := synth.BinaryDataset(rng, n, 0.5)
			qs := query.RandomSubsets(rng, n, queries)
			o := query.Instrument(&query.BoundedNoise{X: x, Alpha: alpha, Rng: rng}, nil)
			got, err := recon.Exhaustive(ctx, o, qs, alpha)
			if err != nil {
				return err
			}
			meanErr += recon.HammingError(x, got)
		}
		errs[i] = meanErr / float64(trials)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, alpha := range alphas {
		ok := "yes"
		if errs[i] > 0.05 {
			ok = "no"
		}
		t.AddRow(g3(alpha), g3(alpha/float64(n)), f3(errs[i]), ok)
	}
	return t, nil
}

// E02LPReconstruction reproduces Theorem 1.1(ii) and the "fundamental law"
// crossover: LP decoding with 4n queries defeats noise up to roughly √n,
// and degrades to coin-flipping as noise approaches n.
func E02LPReconstruction(ctx context.Context, seed int64, quick bool) (*Table, error) {
	// n=96 keeps a full sweep within minutes on a laptop; the shape is
	// already stable from n≈32 (see the quick sizes). Parallelism is over
	// the ns; within one n each trial draws its database and query set
	// once and sweeps every noise level c over them through one
	// recon.Decoder, which builds the LP constraint matrix once. Each
	// noise level's answers move every query row, so the Decoder solves
	// each of them cold, which takes fewer pivots than a warm start from
	// the previous level's optimum. Per-n RNGs keep the table identical
	// at any worker count.
	ns := []int{32, 64, 96}
	trials := 2
	if quick {
		ns = []int{32, 64}
	}
	cs := func(n int) []float64 {
		return []float64{0, 0.25, 0.5, 1, 2, float64(n) / (3 * math.Sqrt(float64(n)))}
	}
	t := &Table{
		ID:     "E02",
		Title:  "LP-decoding reconstruction, m=4n random subset queries, noise alpha = c·√n",
		Header: []string{"n", "c = alpha/√n", "mean Hamming error", "blatantly non-private (err<5%)?"},
		Notes:  []string{"Thm 1.1(ii) + Dwork–Roth fundamental law: accuracy o(√n) destroys privacy; error Θ(n) defends"},
	}
	errs := make([][]float64, len(ns))
	err := par.ForEach(Workers(), len(ns), func(i int) error {
		rng := par.RNG(seed, i)
		n := ns[i]
		cvals := cs(n)
		errs[i] = make([]float64, len(cvals))
		for trial := 0; trial < trials; trial++ {
			x := synth.BinaryDataset(rng, n, 0.5)
			qs := query.RandomSubsets(rng, n, 4*n)
			dec, err := recon.NewDecoder(n, qs, recon.L1Slack)
			if err != nil {
				return err
			}
			for ci, c := range cvals {
				alpha := c * math.Sqrt(float64(n))
				o := query.Instrument(&query.BoundedNoise{X: x, Alpha: alpha, Rng: rng}, nil)
				got, _, err := dec.DecodeOracle(ctx, o)
				if err != nil {
					return err
				}
				errs[i][ci] += recon.HammingError(x, got)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, n := range ns {
		for ci, c := range cs(n) {
			meanErr := errs[i][ci] / float64(trials)
			ok := "yes"
			if meanErr > 0.05 {
				ok = "no"
			}
			t.AddRow(fmt.Sprintf("%d", n), g3(c), f3(meanErr), ok)
		}
	}
	return t, nil
}

// E03LaplaceDP verifies Theorem 1.3 empirically: the Laplace mechanism's
// measured privacy loss stays below its advertised epsilon, and its
// accuracy degrades as 1/eps.
func E03LaplaceDP(ctx context.Context, seed int64, quick bool) (*Table, error) {
	rng := rand.New(rand.NewSource(seed))
	trials := 300000
	if quick {
		trials = 60000
	}
	t := &Table{
		ID:     "E03",
		Title:  fmt.Sprintf("Laplace counting mechanism, %d trials per epsilon", trials),
		Header: []string{"epsilon", "empirical epsilon (lower bound)", "within bound?", "mean |error|", "theory 1/eps"},
		Notes: []string{
			"Thm 1.3: M(x) = Σx_i + Lap(1/eps) is eps-DP; accuracy/privacy trade-off",
			"the empirical epsilon is a histogram estimate with ≈±0.1 sampling noise at these trial counts",
		},
	}
	for _, eps := range []float64{0.1, 0.5, 1, 2} {
		emp := dp.EmpiricalEpsilon(rng,
			func(r *rand.Rand) float64 { return dp.LaplaceCount(r, 100, eps) },
			func(r *rand.Rand) float64 { return dp.LaplaceCount(r, 101, eps) },
			trials, 0.5/eps)
		var sumAbs float64
		for i := 0; i < trials/10; i++ {
			sumAbs += math.Abs(dp.LaplaceCount(rng, 100, eps) - 100)
		}
		within := "yes"
		if emp > eps*1.1+0.1 {
			within = "NO"
		}
		t.AddRow(g3(eps), g3(emp), within, f3(sumAbs/float64(trials/10)), f3(1/eps))
	}
	return t, nil
}

// E13DiffixReconstruction reproduces [13]: sticky noise plus low-count
// suppression do not prevent LP reconstruction until the noise reaches the
// fundamental-law scale.
func E13DiffixReconstruction(ctx context.Context, seed int64, quick bool) (*Table, error) {
	n := 96
	if quick {
		n = 48
	}
	t := &Table{
		ID:     "E13",
		Title:  fmt.Sprintf("LP reconstruction of a Diffix-style cloak, n=%d users, m=4n queries, suppression<8", n),
		Header: []string{"sticky noise SD", "SD/√n", "Hamming error", "defeated (err<5%)?"},
		Notes:  []string{"[13]: deployed sticky-noise magnitudes are far below √n, so reconstruction succeeds"},
	}
	// One cloak + attack per noise level, fanned over the shared pool;
	// each level's RNG derives from (seed, index) for worker invariance.
	sds := []float64{1, 2, 4, math.Sqrt(float64(n)), float64(n) / 3}
	results := make([]diffix.AttackResult, len(sds))
	err := par.ForEach(Workers(), len(sds), func(i int) error {
		rng := par.RNG(seed, i)
		sd := sds[i]
		c := &diffix.Cloak{X: synth.BinaryDataset(rng, n, 0.5), SD: sd, Threshold: 8, Seed: seed + int64(sd*100)}
		res, _, err := diffix.Attack(ctx, rng, c, 4*n)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, sd := range sds {
		defeated := "yes"
		if results[i].HammingError > 0.05 {
			defeated = "no"
		}
		t.AddRow(g3(sd), g3(sd/math.Sqrt(float64(n))), f3(results[i].HammingError), defeated)
	}
	return t, nil
}

// A01LPObjective is the LP-objective ablation: L1 slack minimization vs
// Chebyshev (max-violation) decoding at matched noise.
func A01LPObjective(ctx context.Context, seed int64, quick bool) (*Table, error) {
	rng := rand.New(rand.NewSource(seed))
	n, trials := 64, 3
	if quick {
		n, trials = 32, 2
	}
	t := &Table{
		ID:     "A01",
		Title:  fmt.Sprintf("LP decoding objective ablation, n=%d, m=4n, alpha=0.5√n", n),
		Header: []string{"objective", "mean Hamming error"},
	}
	alpha := 0.5 * math.Sqrt(float64(n))
	for _, obj := range []struct {
		name string
		o    recon.LPObjective
	}{{"L1 slack", recon.L1Slack}, {"Chebyshev", recon.Chebyshev}} {
		meanErr := 0.0
		for trial := 0; trial < trials; trial++ {
			x := synth.BinaryDataset(rng, n, 0.5)
			qs := query.RandomSubsets(rng, n, 4*n)
			oracle := query.Instrument(&query.BoundedNoise{X: x, Alpha: alpha, Rng: rng}, nil)
			got, _, err := recon.LPDecode(ctx, oracle, qs, obj.o)
			if err != nil {
				return nil, err
			}
			meanErr += recon.HammingError(x, got)
		}
		t.AddRow(obj.name, f3(meanErr/float64(trials)))
	}
	return t, nil
}

// A05IntegerNoise compares the two-sided geometric and Laplace mechanisms
// for integer counts at matched epsilon.
func A05IntegerNoise(ctx context.Context, seed int64, quick bool) (*Table, error) {
	rng := rand.New(rand.NewSource(seed))
	trials := 200000
	if quick {
		trials = 40000
	}
	t := &Table{
		ID:     "A05",
		Title:  fmt.Sprintf("integer-count noise ablation, %d trials per epsilon", trials),
		Header: []string{"epsilon", "Laplace mean |err|", "geometric mean |err|", "geometric integral?"},
	}
	for _, eps := range []float64{0.25, 1, 4} {
		var lap, geo float64
		for i := 0; i < trials; i++ {
			lap += math.Abs(dp.LaplaceCount(rng, 50, eps) - 50)
			geo += math.Abs(float64(dp.GeometricCount(rng, 50, eps) - 50))
		}
		t.AddRow(g3(eps), f3(lap/float64(trials)), f3(geo/float64(trials)), "yes")
	}
	return t, nil
}
