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
	for i, c := range multipliers {
		rng := par.RNG(seed, i)
		m := c * n
		qs := query.RandomSubsets(rng, n, m)
		got, _, err := recon.LPDecode(ctx, query.Instrument(o, nil), qs, recon.L1Slack)
		if err != nil {
			return nil, fmt.Errorf("experiments: E02.remote at m=%d: %w", m, err)
		}
		e := recon.HammingError(truth, got)
		ok := "yes"
		if e > 0.05 {
			ok = "no"
		}
		t.AddRow(fmt.Sprintf("%d", c), fmt.Sprintf("%d", m), f3(e), ok)
	}
	return t, nil
}
