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
// report: the queries-to-X%-accuracy table, and the source of cmd/repro's
// BENCH.converge.q50/q90 summary rows (q50 = queries to 50% accuracy).
var ConvergeThresholds = []float64{0.5, 0.9, 0.95, 0.99}

// StreamResult carries the anytime attack's outcome beyond the printable
// table: the final reconstruction (so callers can verify the stream
// reproduced the batch decode bit-for-bit) and the milestone crossings
// that cmd/repro records as BENCH.converge rows, whose converge.queries
// counters the bench gate compares like any other work counter.
type StreamResult struct {
	// Final is the reconstruction after the last chunk — byte-identical
	// to decoding the full answer vector in one batch.
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

// E02StreamOverOracle is the anytime form of E02OverOracle: it fixes one
// m = 4n random-subset workload, answers it through the oracle chunk
// queries at a time, and re-decodes after every chunk via the streaming
// LP decoder (every step after the first a warm-started re-solve, see
// recon.StreamDecoder).
// Each step appends one point to the "recon.lp.accuracy" curve in curves
// (x = queries answered, y = fraction of rows recovered), which a curve
// set attached to a run journal mirrors as attack.converge events (the
// /converge SSE tail) as the attack runs. The returned table is the
// queries-to-X%-accuracy summary; the final reconstruction in
// StreamResult equals the batch decode of the same workload. chunk <= 0
// defaults to n/4.
func E02StreamOverOracle(ctx context.Context, o query.Oracle, truth []int64, seed int64, chunk int, curves *obs.CurveSet) (*Table, *StreamResult, error) {
	n := o.N()
	if len(truth) != n {
		return nil, nil, fmt.Errorf("experiments: truth has %d entries for an oracle over %d", len(truth), n)
	}
	if chunk <= 0 {
		chunk = n / 4
		if chunk < 1 {
			chunk = 1
		}
	}
	if curves == nil {
		curves = obs.NewCurveSet()
	}
	m := 4 * n
	rng := par.RNG(seed, 0)
	qs := query.RandomSubsets(rng, n, m)
	dec, err := recon.NewDecoder(n, qs, recon.L1Slack)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: E02.stream: %w", err)
	}
	sd := dec.Stream()
	curve := curves.Curve("recon.lp.accuracy")
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
			fmt.Sprintf("final accuracy %s after all %d queries; every push after the first is a warm-started LP re-solve (lp.warm_starts in the metrics)", f3(res.FinalAccuracy), m),
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

// CensusStreamResult summarizes an anytime census reconstruction.
type CensusStreamResult struct {
	// Cells is the total number of published table cells consumed.
	Cells int
	// Persons is the population size.
	Persons int
	// FinalExactFraction is the batch-scored fraction of records
	// reconstructed exactly after all cells.
	FinalExactFraction float64
	// ToExact maps an exact-fraction threshold to the cumulative cell
	// count at which the running fraction first reached it.
	ToExact map[float64]int
}

// censusExactThresholds are the exact-fraction milestones E11Stream
// reports (the census analogue of ConvergeThresholds; census exact
// fractions plateau well below 100%, so the milestones sit lower).
var censusExactThresholds = []float64{0.10, 0.25, 0.50}

// E11StreamConverge is the anytime form of the E11 census attack: blocks
// are solved sequentially, each ingesting its published table cells one
// at a time with an incremental SAT re-solve per cell (learned clauses
// retained — see census.ReconstructBlockStream). Every step appends one
// point to the "census.exact_fraction" curve (x = cumulative cells
// consumed, y = running fraction of the whole population reconstructed
// exactly) whose stats carry the block id and the solver's cumulative
// decisions/restarts/conflicts, so the journal's attack.converge events
// expose solver cost next to accuracy.
func E11StreamConverge(ctx context.Context, seed int64, quick bool, curves *obs.CurveSet) (*Table, *CensusStreamResult, error) {
	rng := rand.New(rand.NewSource(seed))
	n := 600
	if quick {
		n = 250
	}
	pop, err := synth.Population(rng, synth.PopulationConfig{N: n, ZIPs: 4, BlocksPerZIP: 20})
	if err != nil {
		return nil, nil, err
	}
	cfg := census.DefaultConfig()
	tables := census.Tabulate(pop, cfg)
	truth := census.TrueTuples(pop, cfg)
	if curves == nil {
		curves = obs.NewCurveSet()
	}
	curve := curves.Curve("census.exact_fraction")
	cellsPerBlock := 2*cfg.Buckets() + 12 + 12
	res := &CensusStreamResult{Persons: n, ToExact: map[float64]int{}}
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
			if _, done := res.ToExact[th]; !done && y >= th-1e-12 {
				res.ToExact[th] = x
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
		return nil, nil, err
	}
	res.Cells = cellsPerBlock * len(tables)
	exact := 0
	for _, r := range results {
		if r.Solved {
			exact += census.MultisetIntersection(truth[r.Block], r.Tuples)
		}
	}
	res.FinalExactFraction = float64(exact) / float64(n)
	t := &Table{
		ID:     "E11.stream",
		Title:  fmt.Sprintf("anytime census reconstruction, %d persons, %d blocks, %d table cells", n, len(tables), res.Cells),
		Header: []string{"exact-fraction milestone", "table cells needed", "fraction of cells"},
		Notes: []string{
			fmt.Sprintf("final exact fraction %s after all %d cells; per-cell incremental SAT solves retain learned clauses", pct(res.FinalExactFraction), res.Cells),
			"curve census.exact_fraction carries the per-cell points with cumulative solver decisions/restarts/conflicts",
		},
	}
	for _, th := range censusExactThresholds {
		label := fmt.Sprintf("exact ≥ %g%%", 100*th)
		if c, ok := res.ToExact[th]; ok {
			t.AddRow(label, strconv.Itoa(c), pct(float64(c)/float64(res.Cells)))
		} else {
			t.AddRow(label, "not reached", "—")
		}
	}
	return t, res, nil
}
