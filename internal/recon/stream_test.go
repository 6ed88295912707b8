package recon

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
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

// checkStreamMatchesBatch streams answers through dec at chunks of 1, 7,
// 24 and 96 and requires each finished stream to return the batch
// decode's fractional solution and LP objective bit for bit: every push
// solves cold, so the last push is the same solve, on the same Solver,
// as Decode. optimum reads the objective back by solving the decoder's
// current LP again, which must return the same point.
func checkStreamMatchesBatch(t *testing.T, dec *Decoder, answers []float64) {
	t.Helper()
	// firstDiff is the first index at which a and b differ in their
	// bits, or -1.
	firstDiff := func(a, b []float64) int {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return i
			}
		}
		return -1
	}
	optimum := func(frac []float64) float64 {
		t.Helper()
		sol, err := dec.solver.Solve(ctx)
		if err != nil || sol.Status != lp.Optimal {
			t.Fatalf("re-solve: %v, %+v", err, sol)
		}
		if i := firstDiff(sol.X[:dec.n], frac); i >= 0 {
			t.Fatalf("re-solve returned x[%d] = %v, the decode %v", i, sol.X[i], frac[i])
		}
		return sol.Objective
	}
	batchGot, batchFrac, err := dec.Decode(ctx, answers)
	if err != nil {
		t.Fatal(err)
	}
	batch := optimum(batchFrac)
	for _, chunk := range []int{1, 7, 24, 96} {
		sd := dec.Stream()
		var got []int64
		var frac []float64
		for sd.Remaining() > 0 {
			k := min(chunk, sd.Remaining())
			got, frac, err = sd.Push(ctx, answers[sd.Answered():sd.Answered()+k])
			if err != nil {
				t.Fatalf("chunk %d at %d answered: %v", chunk, sd.Answered(), err)
			}
		}
		if sd.Answered() != len(answers) || sd.Remaining() != 0 {
			t.Fatalf("chunk %d: answered %d remaining %d", chunk, sd.Answered(), sd.Remaining())
		}
		if i := firstDiff(frac, batchFrac); i >= 0 {
			t.Errorf("chunk %d: streamed x[%d] = %v, batch %v", chunk, i, frac[i], batchFrac[i])
		}
		if !slices.Equal(got, batchGot) {
			t.Errorf("chunk %d: streamed bits %v, batch %v", chunk, got, batchGot)
		}
		if obj := optimum(frac); math.Float64bits(obj) != math.Float64bits(batch) {
			t.Errorf("chunk %d: streamed LP objective %v, batch %v", chunk, obj, batch)
		}
	}
}

// TestStreamMatchesBatchDecode: over exact answers, every chunking's
// finished stream returns the batch decode bit for bit, and the decoder
// decodes the batch again after the streams.
func TestStreamMatchesBatchDecode(t *testing.T) {
	x, _, answers, dec := buildWorkload(t, 7)
	checkStreamMatchesBatch(t, dec, answers)
	got, _, err := dec.Decode(ctx, answers)
	if err != nil {
		t.Fatal(err)
	}
	if e := HammingError(x, got); e > 0.05 {
		t.Fatalf("batch reconstruction error = %v, want ~0", e)
	}
}

// TestStreamMatchesBatchDecodeNoisy is the noisy sibling of
// TestStreamMatchesBatchDecode: under bounded noise at c = 0.5 the L1
// optimum is degenerate, yet every finished stream still ends on the
// batch decode's vertex, bit for bit.
func TestStreamMatchesBatchDecodeNoisy(t *testing.T) {
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
	checkStreamMatchesBatch(t, dec, answers)
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

// TestNonFiniteAnswersRefused: Decode and Push name the first NaN or
// infinite answer by its query index and refuse it before any LP solve,
// and a refused push ingests nothing.
func TestNonFiniteAnswersRefused(t *testing.T) {
	reg := obs.Default()
	wasEnabled := reg.Enabled()
	reg.SetEnabled(true)
	defer reg.SetEnabled(wasEnabled)
	solves := reg.Counter("lp.solves")
	_, _, answers, dec := buildWorkload(t, 4)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		a := append([]float64(nil), answers...)
		a[5], a[9] = bad, bad
		want := fmt.Sprintf("answer to query 5 is %v", bad)
		before := solves.Value()
		if _, _, err := dec.Decode(ctx, a); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Decode with answer 5 = %v: error %v, want %q", bad, err, want)
		}
		sd := dec.Stream()
		if _, _, err := sd.Push(ctx, answers[:4]); err != nil {
			t.Fatal(err)
		}
		if _, _, err := sd.Push(ctx, a[4:8]); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Push with answer 5 = %v: error %v, want %q", bad, err, want)
		}
		if sd.Answered() != 4 {
			t.Errorf("a refused push left %d answered, want 4", sd.Answered())
		}
		if got := solves.Value() - before; got != 1 {
			t.Errorf("%d LP solves, want 1: the accepted push", got)
		}
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

// TestDecodeStartRule pins the Decoder's one start rule on lp-recon's
// sweep: n = 48, m = 4n, bounded noise at c ∈ {0, ¼, ½, 1, 2}. Every
// solve starts cold, so a Decode on a reused Decoder takes exactly the
// pivots, and returns exactly the fractional solution, of a fresh
// Decoder's Decode of the same answers: for each new answer vector, for
// a verbatim replay and for a Decode after a stream push. So does each
// push of a stream session, against a fresh Decoder that pushes the
// same answered prefix at once.
func TestDecodeStartRule(t *testing.T) {
	reg := obs.Default()
	wasEnabled := reg.Enabled()
	reg.SetEnabled(true)
	defer reg.SetEnabled(wasEnabled)
	pivots := reg.Counter("lp.pivots")

	rng := rand.New(rand.NewSource(1))
	n := 48
	x := synth.BinaryDataset(rng, n, 0.5)
	queries := query.RandomSubsets(rng, n, 4*n)
	dec, err := NewDecoder(n, queries, L1Slack)
	if err != nil {
		t.Fatal(err)
	}
	// run returns the pivots push took and its fractional solution.
	run := func(push func() ([]int64, []float64, error)) (int64, []float64) {
		t.Helper()
		pv := pivots.Value()
		_, frac, err := push()
		if err != nil {
			t.Fatal(err)
		}
		return pivots.Value() - pv, frac
	}
	// fresh returns the pivots and fractional solution of a fresh
	// Decoder's one push of answers, a prefix of the workload's.
	fresh := func(answers []float64) (int64, []float64) {
		t.Helper()
		d, err := NewDecoder(n, queries, L1Slack)
		if err != nil {
			t.Fatal(err)
		}
		return run(func() ([]int64, []float64, error) { return d.Stream().Push(ctx, answers) })
	}
	check := func(what string, answers []float64, pv int64, frac []float64) {
		t.Helper()
		wantPv, wantFrac := fresh(answers)
		if pv != wantPv || !slices.EqualFunc(frac, wantFrac, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Errorf("%s: reused decoder took %d pivots (frac %v), a fresh one %d (frac %v)", what, pv, frac, wantPv, wantFrac)
		}
	}
	decode := func(what string, answers []float64) {
		t.Helper()
		pv, frac := run(func() ([]int64, []float64, error) { return dec.Decode(ctx, answers) })
		check(what, answers, pv, frac)
	}
	var answers []float64
	for _, c := range []float64{0, 0.25, 0.5, 1, 2} {
		answers, err = (&query.BoundedNoise{X: x, Alpha: c * math.Sqrt(float64(n)), Rng: rng}).Answer(ctx, queries)
		if err != nil {
			t.Fatal(err)
		}
		decode(fmt.Sprintf("c=%v", c), answers)
	}
	decode("verbatim replay", answers)
	if _, _, err := dec.Stream().Push(ctx, answers[:24]); err != nil {
		t.Fatal(err)
	}
	decode("Decode after a push", answers)

	sd := dec.Stream()
	for sd.Remaining() > 0 {
		end := sd.Answered() + 24
		pv, frac := run(func() ([]int64, []float64, error) { return sd.Push(ctx, answers[sd.Answered():end]) })
		check(fmt.Sprintf("push to %d answered", end), answers[:end], pv, frac)
	}
}
