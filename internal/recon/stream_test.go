package recon

import (
	"math"
	"math/rand"
	"testing"

	"singlingout/internal/lp"
	"singlingout/internal/obs"
	"singlingout/internal/query"
	"singlingout/internal/synth"
)

// buildWorkload builds a dataset, oracle, exact answers, and decoder for
// the streaming tests: n=24, m=4n random subset queries.
func buildWorkload(t *testing.T, seed int64) ([]int64, *query.Exact, []float64, *Decoder) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 24
	x := synth.BinaryDataset(rng, n, 0.5)
	queries := query.RandomSubsets(rng, n, 4*n)
	o := &query.Exact{X: x}
	answers, err := o.Answer(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(n, queries, L1Slack)
	if err != nil {
		t.Fatal(err)
	}
	return x, o, answers, dec
}

func TestStreamMatchesBatchDecode(t *testing.T) {
	x, _, answers, dec := buildWorkload(t, 7)
	batchGot, batchFrac, err := dec.Decode(ctx, answers)
	if err != nil {
		t.Fatal(err)
	}
	if e := HammingError(x, batchGot); e > 0.05 {
		t.Fatalf("batch reconstruction error = %v, want ~0", e)
	}

	// The finished stream must reproduce the batch decode bit-for-bit, at
	// any chunking — including uneven final chunks.
	for _, chunk := range []int{1, 7, 24, 96} {
		sd := dec.Stream()
		var got []int64
		var frac []float64
		for sd.Remaining() > 0 {
			k := chunk
			if rem := sd.Remaining(); k > rem {
				k = rem
			}
			got, frac, err = sd.Push(ctx, answers[sd.Answered():sd.Answered()+k])
			if err != nil {
				t.Fatalf("chunk %d at %d answered: %v", chunk, sd.Answered(), err)
			}
		}
		if sd.Answered() != len(answers) || sd.Remaining() != 0 {
			t.Fatalf("chunk %d: answered %d remaining %d", chunk, sd.Answered(), sd.Remaining())
		}
		for i := range got {
			if got[i] != batchGot[i] {
				t.Errorf("chunk %d: streamed bit %d = %d, batch %d", chunk, i, got[i], batchGot[i])
			}
		}
		// The fractional interiors may sit on different (equally optimal)
		// vertices of the degenerate LP, but only within the solver's
		// documented ~1e-5 numerical slack.
		for i := range frac {
			if d := frac[i] - batchFrac[i]; d > 1e-5 || d < -1e-5 {
				t.Errorf("chunk %d: streamed frac %d = %v, batch %v", chunk, i, frac[i], batchFrac[i])
			}
		}
	}

	// The decoder is reusable for plain batch decoding after a stream.
	again, _, err := dec.Decode(ctx, answers)
	if err != nil {
		t.Fatal(err)
	}
	for i := range again {
		if again[i] != batchGot[i] {
			t.Fatalf("post-stream batch decode diverged at bit %d", i)
		}
	}
}

// TestStreamMatchesBatchDecodeNoisy is the noisy sibling of
// TestStreamMatchesBatchDecode: under bounded noise at c = 0.5 the L1
// optimum is degenerate, so the streamed and batch decodes may end on
// different optimal vertices, but the finished stream must reach the
// batch LP's optimal objective, and every push must warm-start (a push
// changes only RHS values and bounds, which keeps the previous optimum
// dual feasible) — lp.warm_miss must not grow.
func TestStreamMatchesBatchDecodeNoisy(t *testing.T) {
	reg := obs.Default()
	wasEnabled := reg.Enabled()
	reg.SetEnabled(true)
	defer reg.SetEnabled(wasEnabled)
	warmMiss := reg.Counter("lp.warm_miss")

	rng := rand.New(rand.NewSource(13))
	n := 24
	x := synth.BinaryDataset(rng, n, 0.5)
	queries := query.RandomSubsets(rng, n, 4*n)
	o := &query.BoundedNoise{X: x, Alpha: 0.5 * math.Sqrt(float64(n)), Rng: rng}
	answers, err := o.Answer(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(n, queries, L1Slack)
	if err != nil {
		t.Fatal(err)
	}
	// optimum re-solves the decoder's current LP from the basis its last
	// solve ended on: an optimal basis restarts with zero pivots, so this
	// reads back the objective of the vertex that solve found.
	optimum := func() float64 {
		t.Helper()
		sol, err := lp.Revised(ctx, &dec.prob, dec.basis)
		if err != nil || sol.Status != lp.Optimal || !sol.Warm || sol.Pivots != 0 {
			t.Fatalf("re-solve from the final basis: %v, %+v", err, sol)
		}
		return sol.Objective
	}
	if _, _, err := dec.Decode(ctx, answers); err != nil {
		t.Fatal(err)
	}
	batch := optimum()
	for _, chunk := range []int{1, 7, 24, 96} {
		sd := dec.Stream()
		before := warmMiss.Value()
		for sd.Remaining() > 0 {
			k := chunk
			if rem := sd.Remaining(); k > rem {
				k = rem
			}
			if _, _, err := sd.Push(ctx, answers[sd.Answered():sd.Answered()+k]); err != nil {
				t.Fatalf("chunk %d at %d answered: %v", chunk, sd.Answered(), err)
			}
		}
		if missed := warmMiss.Value() - before; missed != 0 {
			t.Errorf("chunk %d: %d pushes missed their warm start", chunk, missed)
		}
		if got := optimum(); math.Abs(got-batch) > 1e-6 {
			t.Errorf("chunk %d: streamed LP objective %v, batch %v", chunk, got, batch)
		}
	}
}

func TestStreamAccuracyReachesExact(t *testing.T) {
	x, o, _, dec := buildWorkload(t, 11)
	sd := dec.Stream()
	var last float64
	for sd.Remaining() > 0 {
		got, _, _, err := sd.PushOracle(ctx, o, 16)
		if err != nil {
			t.Fatal(err)
		}
		last = 1 - HammingError(x, got)
	}
	if last < 0.999 {
		t.Errorf("final streamed accuracy = %v, want 1.0 against an exact oracle", last)
	}
}

func TestStreamPushErrors(t *testing.T) {
	_, o, answers, dec := buildWorkload(t, 3)
	sd := dec.Stream()
	if _, _, err := sd.Push(ctx, nil); err == nil {
		t.Error("empty push should fail")
	}
	if _, _, err := sd.Push(ctx, append([]float64(nil), make([]float64, len(answers)+1)...)); err == nil {
		t.Error("overrunning push should fail")
	}
	if _, _, err := sd.Push(ctx, answers); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := sd.PushOracle(ctx, o, 8); err == nil {
		t.Error("push on a finished workload should fail")
	}
	wrong := &query.Exact{X: make([]int64, o.N()+1)}
	if _, _, _, err := dec.Stream().PushOracle(ctx, wrong, 8); err == nil {
		t.Error("oracle size mismatch should fail")
	}
}

func TestStreamPushOracleChunking(t *testing.T) {
	_, o, _, dec := buildWorkload(t, 5)
	sd := dec.Stream()
	if _, _, k, err := sd.PushOracle(ctx, o, 10); err != nil || k != 10 {
		t.Fatalf("k = %d, err = %v, want 10", k, err)
	}
	// k <= 0 answers everything remaining.
	if _, _, k, err := sd.PushOracle(ctx, o, 0); err != nil || k != sd.Answered()-10 || sd.Remaining() != 0 {
		t.Fatalf("k = %d, err = %v, remaining = %d, want the rest in one push", k, err, sd.Remaining())
	}
}

// TestDecodeStartRule pins when a Decoder warm-starts, on lp-recon's
// sweep: n = 48, m = 4n, bounded noise at c ∈ {0, ¼, ½, 1, 2}.
//   - A Decode whose answers move every query row solves cold, so
//     lp.warm_starts and lp.warm_miss do not move, it takes exactly the
//     pivots of a fresh Decoder on the same answers, and it reaches the
//     objective of a solve forced to warm-start from the previous
//     optimum in fewer pivots over the sweep.
//   - A verbatim replay warm-starts and takes 0 pivots (E02.remote).
//   - A stream session's first push of new answers solves cold and every
//     later push warm-starts.
func TestDecodeStartRule(t *testing.T) {
	reg := obs.Default()
	wasEnabled := reg.Enabled()
	reg.SetEnabled(true)
	defer reg.SetEnabled(wasEnabled)
	warmStarts, warmMiss := reg.Counter("lp.warm_starts"), reg.Counter("lp.warm_miss")
	pivots := reg.Counter("lp.pivots")

	rng := rand.New(rand.NewSource(1))
	n := 48
	x := synth.BinaryDataset(rng, n, 0.5)
	queries := query.RandomSubsets(rng, n, 4*n)
	dec, err := NewDecoder(n, queries, L1Slack)
	if err != nil {
		t.Fatal(err)
	}
	noisy := func(c float64) []float64 {
		t.Helper()
		answers, err := (&query.BoundedNoise{X: x, Alpha: c * math.Sqrt(float64(n)), Rng: rng}).Answer(ctx, queries)
		if err != nil {
			t.Fatal(err)
		}
		return answers
	}
	var answers []float64
	coldPivots, warmPivots := int64(0), 0
	for _, c := range []float64{0, 0.25, 0.5, 1, 2} {
		answers = noisy(c)
		prev := dec.basis
		ws, wm, pv := warmStarts.Value(), warmMiss.Value(), pivots.Value()
		if _, _, err := dec.Decode(ctx, answers); err != nil {
			t.Fatal(err)
		}
		if prev == nil {
			continue
		}
		reused := pivots.Value() - pv
		coldPivots += reused
		if warmStarts.Value() != ws || warmMiss.Value() != wm {
			t.Errorf("c=%v: decode moving every row warm-started (warm_starts +%d, warm_miss +%d)",
				c, warmStarts.Value()-ws, warmMiss.Value()-wm)
		}
		fresh, err := NewDecoder(n, queries, L1Slack)
		if err != nil {
			t.Fatal(err)
		}
		pv = pivots.Value()
		if _, _, err := fresh.Decode(ctx, answers); err != nil {
			t.Fatal(err)
		}
		if got := pivots.Value() - pv; got != reused {
			t.Errorf("c=%v: reused decoder took %d pivots, a fresh one %d", c, reused, got)
		}
		cold, err := lp.Revised(ctx, &dec.prob, dec.basis)
		if err != nil || cold.Status != lp.Optimal || cold.Pivots != 0 {
			t.Fatalf("c=%v: re-solve from the final basis: %v, %+v", c, err, cold)
		}
		warm, err := lp.Revised(ctx, &dec.prob, prev)
		if err != nil || warm.Status != lp.Optimal || !warm.Warm {
			t.Fatalf("c=%v: forced warm solve: %v, %+v", c, err, warm)
		}
		warmPivots += warm.Pivots
		if math.Abs(cold.Objective-warm.Objective) > 1e-6 {
			t.Errorf("c=%v: cold objective %v, forced warm %v", c, cold.Objective, warm.Objective)
		}
	}
	t.Logf("sweep after the first decode: %d pivots cold, %d forced warm", coldPivots, warmPivots)
	if coldPivots >= int64(warmPivots) {
		t.Errorf("cold decodes took %d pivots, forced warm %d: the rule should save pivots", coldPivots, warmPivots)
	}

	ws, pv := warmStarts.Value(), pivots.Value()
	if _, _, err := dec.Decode(ctx, answers); err != nil {
		t.Fatal(err)
	}
	if warmStarts.Value() != ws+1 || pivots.Value() != pv {
		t.Errorf("verbatim replay: warm_starts +%d, pivots +%d, want a warm start with 0 pivots",
			warmStarts.Value()-ws, pivots.Value()-pv)
	}

	answers = noisy(0.5)
	sd := dec.Stream()
	for k := 0; sd.Remaining() > 0; k++ {
		ws, wm := warmStarts.Value(), warmMiss.Value()
		if _, _, err := sd.Push(ctx, answers[sd.Answered():sd.Answered()+24]); err != nil {
			t.Fatal(err)
		}
		want := int64(1)
		if k == 0 {
			want = 0
		}
		if got := warmStarts.Value() - ws; got != want || warmMiss.Value() != wm {
			t.Errorf("push %d: warm_starts +%d, warm_miss +%d, want +%d and +0", k, got, warmMiss.Value()-wm, want)
		}
	}
}
