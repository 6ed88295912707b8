package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"

	"singlingout/internal/census"
	"singlingout/internal/obs"
	"singlingout/internal/par"
	"singlingout/internal/query"
	"singlingout/internal/recon"
	"singlingout/internal/synth"
)

// ConvergeThresholds are the accuracy milestones the streaming harnesses
// report in their queries-to-X%-accuracy tables.
var ConvergeThresholds = []float64{0.5, 0.9, 0.95, 0.99}

// StreamResult carries the anytime attack's outcome beyond the printable
// table: the final reconstruction (so callers can verify the stream
// reproduced the batch decode bit-for-bit) and the milestone crossings.
type StreamResult struct {
	// Final is the reconstruction after the last chunk — bit for bit the
	// batch decode of the full answer vector, since the last push is the
	// same cold solve on the same lp.Solver as recon.Decoder.Decode.
	Final []int64
	// Queries is the full workload size m.
	Queries int
	// FinalAccuracy is 1 - HammingError(truth, Final).
	FinalAccuracy float64
	// ToAccuracy maps each ConvergeThresholds entry to the cumulative
	// query count at which the running accuracy first reached it; absent
	// when never reached.
	ToAccuracy map[float64]int
}

// E02Stream is the registered anytime LP attack: E02StreamOverOracle over
// an exact oracle on a fresh dataset of n = 64 records (quick) or 128
// (full). Its pushes solve decoding LPs with most rows still open, whose
// long degenerate dual runs no batch experiment takes.
func E02Stream(ctx context.Context, seed int64, quick bool) (*Table, error) {
	n := 128
	if quick {
		n = 64
	}
	x := synth.BinaryDataset(par.RNG(seed, 1), n, 0.5)
	t, _, err := E02StreamOverOracle(ctx, &query.Exact{X: x}, x, seed)
	return t, err
}

// E02StreamOverOracle is the anytime form of E02OverOracle: it fixes one
// m = 4n random-subset workload, answers it through the oracle n/4
// queries at a time, and re-decodes after every chunk via the streaming
// LP decoder (each step a cold re-solve of the one decoding LP, see
// recon.StreamDecoder).
// Each step adds one point to the "recon.lp.accuracy" curve of
// obs.DefaultCurves (x = queries answered, y = fraction of rows
// recovered), which reaches the run journal as an attack.converge event
// (the /converge views) as the attack runs. The returned table is the
// queries-to-X%-accuracy summary; the final reconstruction in
// StreamResult equals the batch decode of the same workload, bit for
// bit.
func E02StreamOverOracle(ctx context.Context, o query.Oracle, truth []int64, seed int64) (*Table, *StreamResult, error) {
	n := o.N()
	if len(truth) != n {
		return nil, nil, fmt.Errorf("experiments: truth has %d entries for an oracle over %d", len(truth), n)
	}
	chunk := max(n/4, 1)
	m := 4 * n
	rng := par.RNG(seed, 0)
	qs := query.RandomSubsets(rng, n, m)
	dec, err := recon.NewDecoder(n, qs, recon.L1Slack)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: E02.stream: %w", err)
	}
	sd := dec.Stream()
	curve := obs.DefaultCurves().Curve("recon.lp.accuracy")
	inst := query.Instrument(o, nil)
	res := &StreamResult{Queries: m, ToAccuracy: map[float64]int{}}
	for sd.Remaining() > 0 {
		got, _, k, err := sd.PushOracle(ctx, inst, chunk)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: E02.stream at %d answered: %w", sd.Answered(), err)
		}
		acc := 1 - recon.HammingError(truth, got)
		answered := sd.Answered()
		for _, th := range ConvergeThresholds {
			if _, done := res.ToAccuracy[th]; !done && acc >= th-1e-12 {
				res.ToAccuracy[th] = answered
			}
		}
		curve.AddStats(int64(answered), acc, map[string]int64{"chunk": int64(k)})
		res.Final = got
		res.FinalAccuracy = acc
	}
	t := &Table{
		ID:     "E02.stream",
		Title:  fmt.Sprintf("anytime LP reconstruction over a query oracle, n=%d, m=4n=%d, chunk=%d", n, m, chunk),
		Header: []string{"accuracy milestone", "queries needed", "fraction of workload"},
		Notes: []string{
			fmt.Sprintf("final accuracy %s after all %d queries; each push re-solves the decoding LP cold (lp.solves and lp.pivots in the metrics)", f3(res.FinalAccuracy), m),
			"curve recon.lp.accuracy carries the per-chunk points (journal attack.converge events, /converge endpoint)",
		},
	}
	for _, th := range ConvergeThresholds {
		label := fmt.Sprintf("accuracy ≥ %g%%", 100*th)
		if q, ok := res.ToAccuracy[th]; ok {
			t.AddRow(label, strconv.Itoa(q), pct(float64(q)/float64(m)))
		} else {
			t.AddRow(label, "not reached", "—")
		}
	}
	return t, res, nil
}

// censusExactThresholds are the exact-fraction milestones E11StreamConverge
// reports (the census analogue of ConvergeThresholds; census exact
// fractions plateau well below 100%, so the milestones sit lower).
var censusExactThresholds = []float64{0.10, 0.25, 0.50}

// E11StreamConverge is the anytime form of the E11 census attack: blocks
// are solved sequentially, each ingesting its published table cells one
// at a time with an incremental SAT re-solve per cell (learned clauses
// retained — see census.ReconstructBlockStream). Every step adds one
// point to the "census.exact_fraction" curve of obs.DefaultCurves (x =
// cumulative cells consumed, y = running fraction of the whole
// population reconstructed exactly) whose stats carry the block id and
// the solver's cumulative decisions/restarts/conflicts, so the journal's
// attack.converge events expose solver cost next to accuracy.
func E11StreamConverge(ctx context.Context, seed int64, quick bool) (*Table, error) {
	rng := rand.New(rand.NewSource(seed))
	n := 600
	if quick {
		n = 250
	}
	pop, err := synth.Population(rng, synth.PopulationConfig{N: n, ZIPs: 4, BlocksPerZIP: 20})
	if err != nil {
		return nil, err
	}
	cfg := census.DefaultConfig()
	tables := census.Tabulate(pop, cfg)
	truth := census.TrueTuples(pop, cfg)
	curve := obs.DefaultCurves().Curve("census.exact_fraction")
	cellsPerBlock := 2*cfg.Buckets() + 12 + 12
	toExact := map[float64]int{}
	var (
		seenBlock   bool
		curBlock    int64
		cellsBefore int
		exactDone   int
		curExact    int
	)
	onStep := func(st census.StreamStep) {
		if !seenBlock || st.Block != curBlock {
			if seenBlock {
				cellsBefore += cellsPerBlock
				exactDone += curExact
			}
			seenBlock, curBlock, curExact = true, st.Block, 0
		}
		curExact = st.Exact
		x := cellsBefore + st.Queries
		y := float64(exactDone+st.Exact) / float64(n)
		for _, th := range censusExactThresholds {
			if _, done := toExact[th]; !done && y >= th-1e-12 {
				toExact[th] = x
			}
		}
		curve.AddStats(int64(x), y, map[string]int64{
			"block":     st.Block,
			"decisions": st.Stats.Decisions,
			"restarts":  st.Stats.Restarts,
			"conflicts": st.Stats.Conflicts,
		})
	}
	results, err := census.ReconstructAllStream(ctx, tables, truth, cfg, 500000, onStep)
	if err != nil {
		return nil, err
	}
	cells := cellsPerBlock * len(tables)
	exact := 0
	for _, r := range results {
		if r.Solved {
			exact += census.MultisetIntersection(truth[r.Block], r.Tuples)
		}
	}
	t := &Table{
		ID:     "E11.stream",
		Title:  fmt.Sprintf("anytime census reconstruction, %d persons, %d blocks, %d table cells", n, len(tables), cells),
		Header: []string{"exact-fraction milestone", "table cells needed", "fraction of cells"},
		Notes: []string{
			fmt.Sprintf("final exact fraction %s after all %d cells; per-cell incremental SAT solves retain learned clauses", pct(float64(exact)/float64(n)), cells),
			"curve census.exact_fraction carries the per-cell points with cumulative solver decisions/restarts/conflicts",
		},
	}
	for _, th := range censusExactThresholds {
		label := fmt.Sprintf("exact ≥ %g%%", 100*th)
		if c, ok := toExact[th]; ok {
			t.AddRow(label, strconv.Itoa(c), pct(float64(c)/float64(cells)))
		} else {
			t.AddRow(label, "not reached", "—")
		}
	}
	return t, nil
}
