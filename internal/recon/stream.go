package recon

import (
	"context"
	"errors"
	"fmt"

	"singlingout/internal/lp"
	"singlingout/internal/obs"
	"singlingout/internal/query"
)

// mStreamPushes counts incremental answer chunks decoded by streaming
// sessions (each push is one LP re-solve).
var mStreamPushes = obs.Default().Counter("recon.stream_pushes")

// mColdRestarts counts warm-started solves that exhausted the simplex
// iteration budget and were retried cold. A warm basis several chunks
// stale can strand the dual simplex on a degenerate plateau of the L1
// decoding LP, where even its Bland backstop grinds; the cold path (whose
// ε-perturbation breaks the primal degeneracy) is then the reliable
// route. A nonzero value is a performance signal, never a correctness
// one.
var mColdRestarts = obs.Default().Counter("recon.stream_cold_restarts")

// StreamDecoder is the anytime form of LP decoding: a session over the
// Decoder's fixed query workload that ingests answers incrementally —
// chunk by chunk, as a live oracle produces them — and re-decodes after
// every chunk, so an attacker watches the reconstruction sharpen with
// each answered query instead of waiting for the full batch.
//
// The trick that makes each step cheap is that answering more queries
// changes neither the LP's constraint MATRIX nor its objective, only the
// RHS and the variable bounds. An unanswered L1Slack row reads
//
//	Σ_{i∈q} x_i − e⁺_q + e⁻_q − f_q = 0,   0 ≤ f_q ≤ n
//
// so the zero-cost absorber f_q takes up any Σ_{i∈q} x_i and the row
// prices to nothing; Push writes a_q into the RHS and fixes f_q at 0,
// which leaves exactly the batch row. (An unanswered Chebyshev row pair
// has RHS (n, 0), which no x ∈ [0,1]^n can violate even with t = 0.)
// Reduced costs depend only on the basis and the costs, so the previous
// optimum stays dual feasible after a push, and each re-solve
// warm-starts from it via the dual simplex: the newly answered rows are
// the only primal infeasibilities. Zeroing the e± costs of unanswered
// rows instead would break that and turn every push into a cold solve.
// The exception is a session's first push after a full decode of other
// answers: it moves every row (its rows get new answers, the rest turn
// inert), so it solves cold, as Decoder does for any such change.
//
// After the final push the LP is exactly the batch decoding LP, so the
// finished stream reproduces the batch result (Decoder.Decode is itself
// a thin wrapper that streams the whole answer vector in one push). A
// StreamDecoder borrows its Decoder — run one session at a time and do
// not interleave Decode calls with an active session.
type StreamDecoder struct {
	d        *Decoder
	answered int
}

// Stream starts a streaming session over the decoder's workload: every
// query is reset to unanswered (inert constraint rows) and the session
// ingests answers in order via Push or PushOracle.
func (d *Decoder) Stream() *StreamDecoder {
	for qi := range d.queries {
		d.setRow(qi, 0, false)
	}
	return &StreamDecoder{d: d}
}

// setRow writes query qi's answer a into the LP (answered) or makes its
// rows inert (not answered; a is ignored).
func (d *Decoder) setRow(qi int, a float64, answered bool) {
	p := &d.prob
	switch d.objective {
	case L1Slack:
		f := d.n + 2*len(d.queries) + qi
		if answered {
			p.Constraints[qi].RHS, p.Upper[f] = a, 0
		} else {
			p.Constraints[qi].RHS, p.Upper[f] = 0, float64(d.n)
		}
	case Chebyshev:
		if answered {
			p.Constraints[2*qi].RHS, p.Constraints[2*qi+1].RHS = a, -a
		} else {
			p.Constraints[2*qi].RHS, p.Constraints[2*qi+1].RHS = float64(d.n), 0
		}
	}
}

// Answered returns how many of the workload's queries have been answered.
func (sd *StreamDecoder) Answered() int { return sd.answered }

// Remaining returns how many queries are still unanswered.
func (sd *StreamDecoder) Remaining() int { return len(sd.d.queries) - sd.answered }

// Push ingests the answers to the next len(answers) queries of the
// workload (in workload order) and re-decodes, warm-starting from the
// previous step's simplex basis (the first push of a session may solve
// cold; see StreamDecoder). It returns the rounded reconstruction and the
// fractional LP solution fitted to the answers seen so far.
func (sd *StreamDecoder) Push(ctx context.Context, answers []float64) ([]int64, []float64, error) {
	if len(answers) == 0 {
		return nil, nil, fmt.Errorf("recon: stream push of 0 answers")
	}
	if got := sd.answered + len(answers); got > len(sd.d.queries) {
		return nil, nil, fmt.Errorf("recon: stream push overruns workload: %d answers for %d unanswered queries", len(answers), sd.Remaining())
	}
	for i, a := range answers {
		sd.d.setRow(sd.answered+i, a, true)
	}
	sd.answered += len(answers)
	mStreamPushes.Add(1)
	return sd.d.solve(ctx)
}

// PushOracle asks the oracle the next k unanswered queries of the
// workload (all remaining when k <= 0 or k exceeds them) as one batch
// and pushes the answers. It returns the step's reconstruction, the
// fractional solution, and the number of queries actually answered.
func (sd *StreamDecoder) PushOracle(ctx context.Context, o query.Oracle, k int) ([]int64, []float64, int, error) {
	if o.N() != sd.d.n {
		return nil, nil, 0, fmt.Errorf("recon: oracle has n = %d, decoder built for %d", o.N(), sd.d.n)
	}
	if rem := sd.Remaining(); k <= 0 || k > rem {
		k = rem
	}
	if k == 0 {
		return nil, nil, 0, fmt.Errorf("recon: stream push on a finished workload")
	}
	answers, err := o.Answer(ctx, sd.d.queries[sd.answered:sd.answered+k])
	if err != nil {
		return nil, nil, 0, fmt.Errorf("recon: oracle failed: %w", err)
	}
	got, frac, err := sd.Push(ctx, answers)
	return got, frac, k, err
}

// rowState is what a solve sees of query qi: the RHS and absorber bound
// of its L1 row, or the RHS pair of its Chebyshev rows.
func (d *Decoder) rowState(qi int) [2]float64 {
	p := &d.prob
	if d.objective == L1Slack {
		return [2]float64{p.Constraints[qi].RHS, p.Upper[d.n+2*len(d.queries)+qi]}
	}
	return [2]float64{p.Constraints[2*qi].RHS, p.Constraints[2*qi+1].RHS}
}

// movedEveryRow reports whether every query row's state differs from
// the one the current basis was found for.
func (d *Decoder) movedEveryRow() bool {
	for qi, st := range d.solved {
		if d.rowState(qi) == st {
			return false
		}
	}
	return true
}

// solve runs the decoding LP over the decoder's current RHS state and
// retains the optimal basis. It warm-starts from the previous basis
// unless every query row's state differs from the one that basis was
// found for: a new answer vector then moves every row, and the dual
// simplex walk from the old optimum costs more pivots than the cold
// start's crash, which covers every row with an error column at once.
// A warm solve that runs out of simplex iterations is retried cold —
// see mColdRestarts.
func (d *Decoder) solve(ctx context.Context) ([]int64, []float64, error) {
	warm := d.basis
	if warm != nil && d.movedEveryRow() {
		warm = nil
	}
	sol, err := lp.Revised(ctx, &d.prob, warm)
	if err != nil && warm != nil && errors.Is(err, lp.ErrIterationLimit) {
		mColdRestarts.Add(1)
		d.basis = nil
		sol, err = lp.Revised(ctx, &d.prob, nil)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("recon: LP solve: %w", err)
	}
	if sol.Status != lp.Optimal {
		return nil, nil, fmt.Errorf("recon: LP status %v", sol.Status)
	}
	d.basis = sol.Basis
	for qi := range d.solved {
		d.solved[qi] = d.rowState(qi)
	}
	frac := make([]float64, d.n)
	copy(frac, sol.X[:d.n])
	return Round(frac), frac, nil
}
