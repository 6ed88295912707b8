package recon

import (
	"context"
	"fmt"

	"singlingout/internal/lp"
	"singlingout/internal/obs"
	"singlingout/internal/query"
)

// mStreamPushes counts incremental answer chunks decoded by streaming
// sessions (each push is one LP re-solve).
var mStreamPushes = obs.Default().Counter("recon.stream_pushes")

// StreamDecoder is the anytime form of LP decoding: a session over the
// Decoder's fixed query workload that ingests answers incrementally —
// chunk by chunk, as a live oracle produces them — and re-decodes after
// every chunk, so an attacker watches the reconstruction sharpen with
// each answered query instead of waiting for the full batch.
//
// Answering more queries changes neither the LP's constraint MATRIX nor
// its objective, only the RHS and the variable bounds, so each push
// re-solves the Decoder's one lp.Solver with nothing rebuilt. An
// unanswered L1Slack row reads
//
//	Σ_{i∈q} x_i − e⁺_q + e⁻_q − f_q = 0,   0 ≤ f_q ≤ n
//
// so the zero-cost absorber f_q takes up any Σ_{i∈q} x_i and the row
// prices to nothing; Push writes a_q into the RHS and fixes f_q at 0,
// which leaves exactly the batch row. (An unanswered Chebyshev row pair
// has RHS (n, 0), which no x ∈ [0,1]^n can violate even with t = 0.)
// The absorber is also the cheaper way to make a row inert: zeroing the
// e± costs of unanswered rows instead leaves batch decodes as they are,
// bit for bit, but five streams of exact answers at n = 128, in chunks
// of 32, took 290,115 pivots that way against 213,796 with absorbers.
//
// Every push solves cold. After the final push the LP is exactly the
// batch decoding LP, so the finished stream's last push is the same
// solve on the same Solver as Decoder.Decode (itself a thin wrapper that
// streams the whole answer vector in one push), and returns the batch
// result bit for bit. A StreamDecoder borrows its Decoder — run one
// session at a time and do not interleave Decode calls with an active
// session.
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
// workload (in workload order) and re-decodes. It returns the rounded
// reconstruction and the fractional LP solution fitted to the answers
// seen so far. A NaN or infinite answer is refused before anything is
// ingested.
func (sd *StreamDecoder) Push(ctx context.Context, answers []float64) ([]int64, []float64, error) {
	if len(answers) == 0 {
		return nil, nil, fmt.Errorf("recon: stream push of 0 answers")
	}
	if got := sd.answered + len(answers); got > len(sd.d.queries) {
		return nil, nil, fmt.Errorf("recon: stream push overruns workload: %d answers for %d unanswered queries", len(answers), sd.Remaining())
	}
	if err := checkFinite(answers, sd.answered); err != nil {
		return nil, nil, err
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

// solve runs the decoding LP over the decoder's current RHS state.
func (d *Decoder) solve(ctx context.Context) ([]int64, []float64, error) {
	sol, err := d.solver.Solve(ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("recon: LP solve: %w", err)
	}
	if sol.Status != lp.Optimal {
		return nil, nil, fmt.Errorf("recon: LP status %v", sol.Status)
	}
	frac := make([]float64, d.n)
	copy(frac, sol.X[:d.n])
	return Round(frac), frac, nil
}
