package experiments

import (
	"context"
	"fmt"

	"singlingout/internal/par"
	"singlingout/internal/query"
	"singlingout/internal/recon"
)

// E02OverOracle is the E02 LP-reconstruction sweep re-targeted at a
// caller-supplied oracle — in practice a remote.Oracle dialed against a
// running qserver, which is the paper's actual threat model: the analyst
// holds no data, only a query interface, and the truth used for scoring
// is regenerated locally from the server's advertised seed
// (remote.Dataset). Unlike E02LPReconstruction, the dataset is fixed (it
// lives on the server), so the sweep varies the query budget m = c·n
// instead of n. Rows run sequentially — against a budgeted server the
// spend order is part of the result — with per-row RNGs derived from
// (seed, row), so the table is byte-identical for any two oracles that
// answer identically (e.g. in-process exact vs remote exact backend).
func E02OverOracle(ctx context.Context, o query.Oracle, truth []int64, seed int64, quick bool) (*Table, error) {
	n := o.N()
	if len(truth) != n {
		return nil, fmt.Errorf("experiments: truth has %d entries for an oracle over %d", len(truth), n)
	}
	multipliers := []int{1, 2, 4, 8}
	if quick {
		multipliers = []int{1, 2, 4}
	}
	t := &Table{
		ID:     "E02.remote",
		Title:  fmt.Sprintf("LP-decoding reconstruction over a query oracle, n=%d, m=c·n random subset queries", n),
		Header: []string{"m/n", "queries", "Hamming error", "blatantly non-private (err<5%)?"},
		Notes:  []string{"same decoder as E02; the oracle may be remote (qserver) — truth regenerated from the advertised seed"},
	}
	// Each budget has its own constraint matrix (m differs), so each row
	// decodes cold through its own Decoder; the last row's decoder is kept
	// and replayed below.
	var lastDec *recon.Decoder
	var lastM int
	for i, c := range multipliers {
		rng := par.RNG(seed, i)
		m := c * n
		qs := query.RandomSubsets(rng, n, m)
		dec, err := recon.NewDecoder(n, qs, recon.L1Slack)
		if err != nil {
			return nil, fmt.Errorf("experiments: E02.remote at m=%d: %w", m, err)
		}
		got, _, err := dec.DecodeOracle(ctx, query.Instrument(o, nil))
		if err != nil {
			return nil, fmt.Errorf("experiments: E02.remote at m=%d: %w", m, err)
		}
		e := recon.HammingError(truth, got)
		ok := "yes"
		if e > 0.05 {
			ok = "no"
		}
		t.AddRow(fmt.Sprintf("%d", c), fmt.Sprintf("%d", m), f3(e), ok)
		lastDec, lastM = dec, m
	}
	// Warm replay of the largest budget: the analyst re-decodes the same
	// workload from the previous optimal basis — the steady-state cost of
	// a repeated attack. For a deterministic oracle the answers (and so
	// the row) are identical to the cold decode; only the solver work
	// shrinks (lp.warm_starts / lp.pivots in the metrics). The Decoder
	// warm-starts only a Decode that repeats its previous one's answers,
	// so a noisy oracle's replay solves cold. The counter gate's
	// E02.remote row holds this replay's one warm start.
	got, _, err := lastDec.DecodeOracle(ctx, query.Instrument(o, nil))
	if err != nil {
		return nil, fmt.Errorf("experiments: E02.remote warm replay at m=%d: %w", lastM, err)
	}
	e := recon.HammingError(truth, got)
	ok := "yes"
	if e > 0.05 {
		ok = "no"
	}
	t.AddRow(fmt.Sprintf("%d (warm replay)", multipliers[len(multipliers)-1]), fmt.Sprintf("%d", lastM), f3(e), ok)
	return t, nil
}
