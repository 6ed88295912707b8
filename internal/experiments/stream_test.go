package experiments

import (
	"context"
	"io"
	"math/rand"
	"strings"
	"testing"

	"singlingout/internal/obs"
	"singlingout/internal/par"
	"singlingout/internal/query"
	"singlingout/internal/recon"
	"singlingout/internal/synth"
)

// convergePoints attaches a journal to the default curve set for the rest
// of the test and returns a reader of the points of the named curve
// emitted since, in emission order.
func convergePoints(t *testing.T) func(name string) []obs.CurvePoint {
	t.Helper()
	j := obs.NewJournal(io.Discard)
	obs.DefaultCurves().SetJournal(j)
	t.Cleanup(func() { obs.DefaultCurves().SetJournal(nil) })
	return func(name string) []obs.CurvePoint {
		var pts []obs.CurvePoint
		for _, e := range j.Recent() {
			if e.Phase == "attack.converge" && e.Curve.Name == name {
				pts = append(pts, e.Curve.CurvePoint)
			}
		}
		return pts
	}
}

func TestE02StreamMonotoneCurveAndBatchIdentity(t *testing.T) {
	ctx := context.Background()
	const (
		seed  = int64(3)
		n     = 32
		chunk = n / 4
	)
	points := convergePoints(t)
	x := synth.BinaryDataset(rand.New(rand.NewSource(seed)), n, 0.5)
	tab, res, err := E02StreamOverOracle(ctx, &query.Exact{X: x}, x, seed)
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

	// The curve must be monotone in x with one point per chunk of n/4,
	// ending at the full workload.
	pts := points("recon.lp.accuracy")
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

// TestE02StreamRunnerTwice runs the registered E02.stream twice in one
// process with a journal attached. Neither run may panic, each must emit
// its own 16 points at x = 16, 32, …, 256, and both must print the same
// table, whose seed-1 quick milestones are 16 queries to 50% accuracy
// and 32 to 90%.
func TestE02StreamRunnerTwice(t *testing.T) {
	points := convergePoints(t)
	r, ok := ByID("E02.stream")
	if !ok {
		t.Fatal("E02.stream not registered")
	}
	var tabs []string
	for run := 0; run < 2; run++ {
		tab, err := r.Run(context.Background(), 1, true)
		if err != nil {
			t.Fatal(err)
		}
		if q50, q90 := tab.Rows[0][1], tab.Rows[1][1]; q50 != "16" || q90 != "32" {
			t.Errorf("run %d: queries to 50%% / 90%% accuracy = %s / %s, want 16 / 32", run, q50, q90)
		}
		tabs = append(tabs, tab.String())
	}
	if tabs[0] != tabs[1] {
		t.Errorf("second run's table differs:\n%s\nfirst:\n%s", tabs[1], tabs[0])
	}
	const perRun = 256 / 16
	pts := points("recon.lp.accuracy")
	if len(pts) != 2*perRun {
		t.Fatalf("journal holds %d points, want %d per run", len(pts), perRun)
	}
	for i, p := range pts {
		if want := int64(16 * (i%perRun + 1)); p.X != want {
			t.Errorf("run %d point %d: x = %d, want %d", i/perRun, i%perRun, p.X, want)
		}
	}
}

func TestE11StreamConverge(t *testing.T) {
	if testing.Short() {
		t.Skip("census streaming solve is seconds-long")
	}
	points := convergePoints(t)
	tab, err := E11StreamConverge(context.Background(), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	// At seed 1 the quick population has 68 blocks of 48 published cells.
	const cells = 68 * 48
	if tab.ID != "E11.stream" || !strings.Contains(tab.Title, "250 persons, 68 blocks, 3264 table cells") {
		t.Errorf("table = %s — %s", tab.ID, tab.Title)
	}
	pts := points("census.exact_fraction")
	if len(pts) != cells {
		t.Fatalf("curve has %d points, want one per cell (%d)", len(pts), cells)
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
	if last := pts[len(pts)-1]; last.X != cells || last.Y <= 0 {
		t.Errorf("last point = %+v, want x = all %d cells and a positive exact fraction", last, cells)
	}
}
