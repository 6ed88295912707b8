package experiments

import (
	"context"
	"math/rand"
	"testing"

	"singlingout/internal/obs"
	"singlingout/internal/par"
	"singlingout/internal/query"
	"singlingout/internal/recon"
	"singlingout/internal/synth"
)

func TestE02StreamMonotoneCurveAndBatchIdentity(t *testing.T) {
	ctx := context.Background()
	const (
		seed  = int64(3)
		n     = 32
		chunk = 16
	)
	x := synth.BinaryDataset(rand.New(rand.NewSource(seed)), n, 0.5)
	cs := obs.NewCurveSet()
	tab, res, err := E02StreamOverOracle(ctx, &query.Exact{X: x}, x, seed, chunk, cs)
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "E02.stream" || len(tab.Rows) != len(ConvergeThresholds) {
		t.Errorf("table = %s with %d rows", tab.ID, len(tab.Rows))
	}
	if res.Queries != 4*n {
		t.Errorf("queries = %d, want %d", res.Queries, 4*n)
	}
	if res.FinalAccuracy < 0.999 {
		t.Errorf("final accuracy = %v against an exact oracle", res.FinalAccuracy)
	}
	if q, ok := res.ToAccuracy[0.99]; !ok || q <= 0 || q > res.Queries {
		t.Errorf("ToAccuracy[0.99] = %d, %v", q, ok)
	}

	// The curve must be monotone in x with one point per chunk, ending at
	// the full workload.
	pts := cs.Snapshot()["recon.lp.accuracy"]
	if want := res.Queries / chunk; len(pts) != want {
		t.Fatalf("curve has %d points, want %d", len(pts), want)
	}
	for i, p := range pts {
		if p.X != int64(chunk*(i+1)) {
			t.Errorf("point %d x = %d, want %d", i, p.X, chunk*(i+1))
		}
		if p.Stats["chunk"] != chunk {
			t.Errorf("point %d stats = %v", i, p.Stats)
		}
	}
	if last := pts[len(pts)-1]; last.Y != res.FinalAccuracy {
		t.Errorf("last curve y = %v, final accuracy = %v", last.Y, res.FinalAccuracy)
	}

	// The streamed final reconstruction is byte-identical to a batch
	// decode of the same workload.
	rng := par.RNG(seed, 0)
	qs := query.RandomSubsets(rng, n, 4*n)
	dec, err := recon.NewDecoder(n, qs, recon.L1Slack)
	if err != nil {
		t.Fatal(err)
	}
	answers, err := (&query.Exact{X: x}).Answer(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	batch, _, err := dec.Decode(ctx, answers)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		if res.Final[i] != batch[i] {
			t.Fatalf("streamed bit %d = %d, batch %d", i, res.Final[i], batch[i])
		}
	}
}

func TestE11StreamConverge(t *testing.T) {
	if testing.Short() {
		t.Skip("census streaming solve is seconds-long")
	}
	ctx := context.Background()
	cs := obs.NewCurveSet()
	tab, res, err := E11StreamConverge(ctx, 1, true, cs)
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "E11.stream" {
		t.Errorf("table = %s", tab.ID)
	}
	if res.FinalExactFraction <= 0 || res.FinalExactFraction > 1 {
		t.Errorf("final exact fraction = %v", res.FinalExactFraction)
	}
	if res.Cells <= 0 || res.Persons != 250 {
		t.Errorf("cells = %d persons = %d", res.Cells, res.Persons)
	}
	pts := cs.Snapshot()["census.exact_fraction"]
	if len(pts) == 0 {
		t.Fatal("no curve points")
	}
	for i, p := range pts {
		if i > 0 && p.X <= pts[i-1].X {
			t.Errorf("curve not monotone at %d: x=%d after %d", i, p.X, pts[i-1].X)
		}
		if p.Y < 0 || p.Y > 1 {
			t.Errorf("point %d y = %v", i, p.Y)
		}
		if _, ok := p.Stats["decisions"]; !ok {
			t.Errorf("point %d carries no solver stats: %v", i, p.Stats)
		}
	}
	if last := pts[len(pts)-1]; int(last.X) != res.Cells {
		t.Errorf("last x = %d, want all %d cells", last.X, res.Cells)
	}
}
