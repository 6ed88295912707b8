package census

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"singlingout/internal/synth"
)

var ctx = context.Background()

// cellID flattens a tuple: the inverse that cellTuple must match.
func (c Config) cellID(t Tuple) int {
	return ((t.Sex*c.Buckets()+t.AgeBucket)*6+t.Race)*2 + t.Ethnicity
}

func TestCellIDRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	f := func(sexRaw, buckRaw, raceRaw, ethRaw uint8) bool {
		tu := Tuple{
			Sex:       int(sexRaw) % 2,
			AgeBucket: int(buckRaw) % cfg.Buckets(),
			Race:      int(raceRaw) % 6,
			Ethnicity: int(ethRaw) % 2,
		}
		id := cfg.cellID(tu)
		return id >= 0 && id < cfg.numCells() && cfg.cellTuple(id) == tu
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTabulateConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pop, _ := synth.Population(rng, synth.PopulationConfig{N: 500, ZIPs: 3, BlocksPerZIP: 10})
	cfg := DefaultConfig()
	tables := Tabulate(pop, cfg)
	total := 0
	for _, bt := range tables {
		total += bt.Total
		sexAgeSum, raceEtSum, sexRcSum := 0, 0, 0
		for _, c := range bt.SexAge {
			sexAgeSum += c
		}
		for _, c := range bt.RaceEt {
			raceEtSum += c
		}
		for _, c := range bt.SexRc {
			sexRcSum += c
		}
		if sexAgeSum != bt.Total || raceEtSum != bt.Total || sexRcSum != bt.Total {
			t.Fatalf("block %d: marginals %d/%d/%d != total %d", bt.Block, sexAgeSum, raceEtSum, sexRcSum, bt.Total)
		}
	}
	if total != pop.Len() {
		t.Errorf("tabulated %d persons, want %d", total, pop.Len())
	}
}

func TestReconstructSingletonBlockIsExact(t *testing.T) {
	cfg := DefaultConfig()
	truth := Tuple{Sex: 1, AgeBucket: 3, Race: 2, Ethnicity: 0}
	bt := BlockTables{
		Block: 7, Total: 1,
		SexAge: map[[2]int]int{{1, 3}: 1},
		RaceEt: map[[2]int]int{{2, 0}: 1},
		SexRc:  map[[2]int]int{{1, 2}: 1},
	}
	res, err := ReconstructBlock(bt, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved || !res.Unique {
		t.Fatalf("singleton block should be solved uniquely: %+v", res)
	}
	if len(res.Tuples) != 1 || res.Tuples[0] != truth {
		t.Errorf("reconstructed %+v, want %+v", res.Tuples, truth)
	}
}

func TestReconstructEmptyBlock(t *testing.T) {
	res, err := ReconstructBlock(BlockTables{Block: 1}, DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved || !res.Unique || len(res.Tuples) != 0 {
		t.Errorf("empty block: %+v", res)
	}
}

func TestMultisetIntersection(t *testing.T) {
	a := []Tuple{{Sex: 1}, {Sex: 1}, {Sex: 0}}
	b := []Tuple{{Sex: 1}, {Sex: 0}, {Sex: 0}}
	if got := MultisetIntersection(a, b); got != 2 {
		t.Errorf("intersection = %d, want 2", got)
	}
	if got := MultisetIntersection(nil, b); got != 0 {
		t.Errorf("empty intersection = %d", got)
	}
}

func TestReconstructPopulation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pop, _ := synth.Population(rng, synth.PopulationConfig{N: 150, ZIPs: 3, BlocksPerZIP: 12})
	cfg := DefaultConfig()
	results, sum, err := Reconstruct(pop, cfg, 200000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Blocks == 0 || sum.Persons != 150 {
		t.Fatalf("summary %+v", sum)
	}
	if sum.Solved != sum.Blocks {
		t.Errorf("solved %d of %d blocks", sum.Solved, sum.Blocks)
	}
	// The published tables strongly constrain small blocks: a large share
	// of records must be reconstructed exactly (the paper reports 46%
	// exact for the full 2010 data with far richer tables).
	if sum.ExactFraction < 0.5 {
		t.Errorf("exact fraction = %v, want >= 0.5", sum.ExactFraction)
	}
	truth := TrueTuples(pop, cfg)
	for _, r := range results {
		if !r.Solved {
			continue
		}
		// Reconstruction must reproduce the published tables exactly.
		want := truth[r.Block]
		if len(r.Tuples) != len(want) {
			t.Fatalf("block %d: %d tuples, want %d", r.Block, len(r.Tuples), len(want))
		}
		recTables := tablesFromTuples(r.Block, r.Tuples)
		origTables := tablesFromTuples(r.Block, want)
		if !tablesEqual(recTables, origTables) {
			t.Fatalf("block %d: reconstructed tables differ from published", r.Block)
		}
		// Uniqueness implies exactness: the true assignment is always a
		// model, so a unique model must be the truth.
		if r.Unique && r.Exact != r.Size {
			t.Errorf("block %d unique but only %d/%d exact", r.Block, r.Exact, r.Size)
		}
	}
}

func tablesFromTuples(block int64, ts []Tuple) BlockTables {
	bt := BlockTables{Block: block, SexAge: map[[2]int]int{}, RaceEt: map[[2]int]int{}, SexRc: map[[2]int]int{}}
	for _, t := range ts {
		bt.Total++
		bt.SexAge[[2]int{t.Sex, t.AgeBucket}]++
		bt.RaceEt[[2]int{t.Race, t.Ethnicity}]++
		bt.SexRc[[2]int{t.Sex, t.Race}]++
	}
	return bt
}

func tablesEqual(a, b BlockTables) bool {
	if a.Total != b.Total || len(a.SexAge) != len(b.SexAge) || len(a.RaceEt) != len(b.RaceEt) || len(a.SexRc) != len(b.SexRc) {
		return false
	}
	for k, v := range a.SexAge {
		if b.SexAge[k] != v {
			return false
		}
	}
	for k, v := range a.RaceEt {
		if b.RaceEt[k] != v {
			return false
		}
	}
	for k, v := range a.SexRc {
		if b.SexRc[k] != v {
			return false
		}
	}
	return true
}

func TestLinkageReIdentifies(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pop, _ := synth.Population(rng, synth.PopulationConfig{N: 120, ZIPs: 3, BlocksPerZIP: 15})
	cfg := DefaultConfig()
	results, _, err := Reconstruct(pop, cfg, 200000, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := synth.Registry(rng, pop, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	sum := Linkage(pop, reg, results, cfg)
	if sum.Persons == 0 {
		t.Fatal("no persons linked")
	}
	if sum.Confirmed > sum.Putative || sum.Putative > sum.Persons {
		t.Fatalf("inconsistent linkage summary %+v", sum)
	}
	// With full registry coverage and small blocks, a sizable share of
	// the population should be putatively re-identified and a nontrivial
	// share confirmed (the paper reports 17% confirmed at national scale).
	if sum.PutativeRate() < 0.3 {
		t.Errorf("putative rate = %v, want >= 0.3: %+v", sum.PutativeRate(), sum)
	}
	if sum.ConfirmedRate() <= 0.05 {
		t.Errorf("confirmed rate = %v, want > 0.05: %+v", sum.ConfirmedRate(), sum)
	}
	// Lower registry coverage must not increase re-identification.
	regHalf, _ := synth.Registry(rng, pop, 0.3)
	sumHalf := Linkage(pop, regHalf, results, cfg)
	if sumHalf.Putative > sum.Putative {
		t.Errorf("lower coverage produced more putative matches: %d > %d", sumHalf.Putative, sum.Putative)
	}
	var zero LinkageSummary
	if zero.PutativeRate() != 0 || zero.ConfirmedRate() != 0 {
		t.Error("zero summary rates should be 0")
	}
}

func TestReconstructBudgetExhaustion(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pop, _ := synth.Population(rng, synth.PopulationConfig{N: 60, ZIPs: 1, BlocksPerZIP: 2})
	// A conflict budget of 1 should leave large blocks unsolved (but not
	// error).
	_, sum, err := Reconstruct(pop, DefaultConfig(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Solved == sum.Blocks {
		t.Skip("blocks solved without conflicts; budget test not applicable at this seed")
	}
}

func TestSummaryBySize(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pop, _ := synth.Population(rng, synth.PopulationConfig{N: 200, ZIPs: 3, BlocksPerZIP: 15})
	results, _, err := Reconstruct(pop, DefaultConfig(), 200000, 0)
	if err != nil {
		t.Fatal(err)
	}
	buckets := SummaryBySize(results)
	if len(buckets) != 4 {
		t.Fatalf("buckets = %d", len(buckets))
	}
	totalBlocks, totalPersons := 0, 0
	for _, b := range buckets {
		totalBlocks += b.Blocks
		totalPersons += b.Persons
		if f := b.ExactFraction(); f < 0 || f > 1 {
			t.Errorf("bucket %d-%d exact fraction %v", b.Lo, b.Hi, f)
		}
	}
	if totalBlocks == 0 || totalPersons != 200 {
		t.Errorf("blocks=%d persons=%d", totalBlocks, totalPersons)
	}
	// Small blocks must not be less exactly reconstructed than the largest
	// bucket (the census finding).
	if buckets[0].Persons > 0 && buckets[3].Persons > 0 &&
		buckets[0].ExactFraction() < buckets[3].ExactFraction() {
		t.Errorf("tiny blocks (%.2f) should be at least as exposed as big ones (%.2f)",
			buckets[0].ExactFraction(), buckets[3].ExactFraction())
	}
	var zero SizeBucket
	if zero.ExactFraction() != 0 {
		t.Error("zero bucket fraction should be 0")
	}
}

// TestReconstructBlockStreamMatchesBatch pins the streaming contract: the
// per-cell incremental path reports monotone steps with cumulative solver
// statistics and lands on exactly the batch result.
func TestReconstructBlockStreamMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pop, err := synth.Population(rng, synth.PopulationConfig{N: 40, ZIPs: 1, BlocksPerZIP: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	tables := Tabulate(pop, cfg)
	truth := TrueTuples(pop, cfg)
	cellsPerBlock := 2*cfg.Buckets() + 12 + 12

	for _, bt := range tables {
		batch, err := ReconstructBlock(bt, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		var steps []StreamStep
		streamed, err := ReconstructBlockStream(bt, cfg, 0, truth[bt.Block], func(st StreamStep) {
			steps = append(steps, st)
		})
		if err != nil {
			t.Fatal(err)
		}

		if len(steps) != cellsPerBlock {
			t.Fatalf("block %d: %d steps, want one per cell (%d)", bt.Block, len(steps), cellsPerBlock)
		}
		last := steps[len(steps)-1]
		for i, st := range steps {
			if st.Block != bt.Block || st.Size != bt.Total {
				t.Fatalf("step %d = %+v, want block %d size %d", i, st, bt.Block, bt.Total)
			}
			if st.Queries != i+1 {
				t.Errorf("step %d queries = %d, want %d (monotone, one cell per step)", i, st.Queries, i+1)
			}
			if i > 0 {
				prev := steps[i-1].Stats
				if st.Stats.Decisions < prev.Decisions || st.Stats.Conflicts < prev.Conflicts {
					t.Errorf("step %d solver stats went backwards: %+v then %+v", i, prev, st.Stats)
				}
			}
		}
		// The final step has consumed every cell (the symmetry chains and
		// uniqueness check come after, so its Exact may score a different
		// equally-consistent model than the returned one).
		if !last.Solved {
			t.Fatalf("block %d: final step unsolved", bt.Block)
		}
		if last.Exact < 0 || last.Exact > bt.Total {
			t.Errorf("block %d: final step exact = %d out of [0, %d]", bt.Block, last.Exact, bt.Total)
		}

		// Solved/Unique are properties of the constraint set, not of the
		// returned model: they must match the batch path. The streamed
		// tuples must tabulate to the published tables, and for uniquely
		// determined blocks they must equal the batch tuples exactly.
		if streamed.Solved != batch.Solved || streamed.Unique != batch.Unique || streamed.Size != batch.Size {
			t.Errorf("block %d: streamed %+v, batch %+v", bt.Block, streamed, batch)
		}
		if len(streamed.Tuples) != len(batch.Tuples) {
			t.Fatalf("block %d: streamed %d tuples, batch %d", bt.Block, len(streamed.Tuples), len(batch.Tuples))
		}
		checkTabulatesTo(t, bt, streamed.Tuples)
		if batch.Unique && MultisetIntersection(streamed.Tuples, batch.Tuples) != len(batch.Tuples) {
			t.Errorf("block %d: unique block, but streamed tuple multiset differs from batch", bt.Block)
		}
	}
}

// checkTabulatesTo verifies tuples are a consistent reconstruction: they
// reproduce the block's published marginal tables exactly.
func checkTabulatesTo(t *testing.T, bt BlockTables, tuples []Tuple) {
	t.Helper()
	sexAge := map[[2]int]int{}
	raceEt := map[[2]int]int{}
	sexRc := map[[2]int]int{}
	for _, tp := range tuples {
		sexAge[[2]int{tp.Sex, tp.AgeBucket}]++
		raceEt[[2]int{tp.Race, tp.Ethnicity}]++
		sexRc[[2]int{tp.Sex, tp.Race}]++
	}
	if len(tuples) != bt.Total {
		t.Errorf("block %d: %d tuples for total %d", bt.Block, len(tuples), bt.Total)
	}
	for name, got := range map[string]map[[2]int]int{"SexAge": sexAge, "RaceEt": raceEt, "SexRc": sexRc} {
		want := map[string]map[[2]int]int{"SexAge": bt.SexAge, "RaceEt": bt.RaceEt, "SexRc": bt.SexRc}[name]
		for k, v := range want {
			if got[k] != v {
				t.Errorf("block %d: %s[%v] = %d, want %d", bt.Block, name, k, got[k], v)
			}
		}
		for k, v := range got {
			if want[k] != v {
				t.Errorf("block %d: %s[%v] = %d not published", bt.Block, name, k, v)
			}
		}
	}
}

func TestReconstructAllStreamMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pop, err := synth.Population(rng, synth.PopulationConfig{N: 60, ZIPs: 2, BlocksPerZIP: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	tables := Tabulate(pop, cfg)
	truth := TrueTuples(pop, cfg)

	batch, err := ReconstructAll(tables, cfg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	streamed, err := ReconstructAllStream(ctx, tables, truth, cfg, 0, func(StreamStep) { steps++ })
	if err != nil {
		t.Fatal(err)
	}
	cellsPerBlock := 2*cfg.Buckets() + 12 + 12
	nonEmpty := 0
	for _, bt := range tables {
		if bt.Total > 0 {
			nonEmpty++
		}
	}
	if steps != cellsPerBlock*nonEmpty {
		t.Errorf("steps = %d, want %d (%d cells over %d non-empty blocks)", steps, cellsPerBlock*nonEmpty, cellsPerBlock, nonEmpty)
	}
	checkStreamMatchesBatch(t, tables, batch, streamed)
}

// checkStreamMatchesBatch compares the full-domain streaming results with
// the pruned-domain batch results of the same tables: Solved and Unique
// are properties of the constraint set, so they must agree per block;
// unique blocks must return the same multiset, and every solved block's
// tuples must re-tabulate to its published tables. It needs results
// solved without a conflict budget, so that no block is Unknown.
func checkStreamMatchesBatch(t *testing.T, tables []BlockTables, batch, streamed []BlockResult) {
	t.Helper()
	if len(streamed) != len(batch) {
		t.Fatalf("streamed %d results, batch %d", len(streamed), len(batch))
	}
	for i := range batch {
		b, s := batch[i], streamed[i]
		if b.Block != s.Block || b.Solved != s.Solved || b.Unique != s.Unique {
			t.Errorf("block %d: streamed %+v, batch %+v", b.Block, s, b)
		}
		if s.Solved {
			checkTabulatesTo(t, tables[i], s.Tuples)
		}
		if b.Solved {
			checkTabulatesTo(t, tables[i], b.Tuples)
		}
		if b.Unique && (MultisetIntersection(b.Tuples, s.Tuples) != len(b.Tuples) || len(b.Tuples) != len(s.Tuples)) {
			t.Errorf("block %d: unique block, but tuple multisets differ", b.Block)
		}
	}
}

// TestReconstructAllStreamMatchesBatchDefended runs the stream-vs-batch
// comparison on swapped and DP-noised tables. Noised blocks are often
// jointly unsatisfiable, and their zero counts differ from the truth's,
// so they exercise the pruned batch domain where it differs most from
// the streaming one.
func TestReconstructAllStreamMatchesBatchDefended(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pop, err := synth.Population(rng, synth.PopulationConfig{N: 40, ZIPs: 2, BlocksPerZIP: 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	truth := TrueTuples(pop, cfg)
	cases := []struct {
		name   string
		tables []BlockTables
	}{
		{"swapping 30%", Tabulate(SwapRecords(rng, pop, 0.3), cfg)},
		{"ε=1 DP table noise", NoisyTables(rng, Tabulate(pop, cfg), 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			batch, err := ReconstructAll(tc.tables, cfg, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			streamed, err := ReconstructAllStream(ctx, tc.tables, truth, cfg, 0, func(StreamStep) {})
			if err != nil {
				t.Fatal(err)
			}
			checkStreamMatchesBatch(t, tc.tables, batch, streamed)
			solved := 0
			for _, r := range batch {
				if r.Solved && r.Size > 0 {
					solved++
				}
			}
			if solved == 0 {
				t.Error("no non-empty block solved; the comparison is vacuous")
			}
		})
	}
}

// TestReconstructEmptyDomain covers a block whose tables admit no joint
// cell at all: the sex×age table holds only one sex and the sex×race
// table only the other, so the batch path's pruned domain is empty.
func TestReconstructEmptyDomain(t *testing.T) {
	cfg := DefaultConfig()
	bt := BlockTables{
		Block: 9, Total: 2,
		SexAge: map[[2]int]int{{1, 3}: 2},
		RaceEt: map[[2]int]int{{2, 0}: 2},
		SexRc:  map[[2]int]int{{0, 2}: 2},
	}
	if d := cfg.tableDomain(bt); len(d) != 0 {
		t.Fatalf("table domain = %v, want empty", d)
	}
	if _, err := ReconstructBlock(bt, cfg, 0); !errors.Is(err, ErrInconsistentTables) {
		t.Errorf("batch: err = %v, want ErrInconsistentTables", err)
	}
	if _, err := ReconstructBlockStream(bt, cfg, 0, nil, func(StreamStep) {}); !errors.Is(err, ErrInconsistentTables) {
		t.Errorf("stream: err = %v, want ErrInconsistentTables", err)
	}
}

// TestReconstructEmptyBlockInconsistent covers blocks whose total is
// zero on both paths. Explicit zero cells still leave the empty multiset
// as the one reconstruction; a block whose sex×age cells are all zero but
// whose race×ethnicity table still publishes residents (as DP noise can
// leave it) has no consistent microdata.
func TestReconstructEmptyBlockInconsistent(t *testing.T) {
	cfg := DefaultConfig()
	zeros := BlockTables{
		Block:  4,
		SexAge: map[[2]int]int{{0, 1}: 0},
		RaceEt: map[[2]int]int{{1, 0}: 0},
	}
	positive := BlockTables{
		Block:  5,
		SexAge: map[[2]int]int{{0, 1}: 0},
		RaceEt: map[[2]int]int{{1, 0}: 2},
	}
	for name, run := range map[string]func(BlockTables) (BlockResult, error){
		"batch": func(bt BlockTables) (BlockResult, error) { return ReconstructBlock(bt, cfg, 0) },
		"stream": func(bt BlockTables) (BlockResult, error) {
			return ReconstructBlockStream(bt, cfg, 0, nil, func(StreamStep) {})
		},
	} {
		if r, err := run(zeros); err != nil || !r.Solved || !r.Unique || len(r.Tuples) != 0 {
			t.Errorf("%s: all-zero block = %+v, %v; want solved, unique, no tuples", name, r, err)
		}
		if _, err := run(positive); !errors.Is(err, ErrInconsistentTables) {
			t.Errorf("%s: err = %v, want ErrInconsistentTables", name, err)
		}
	}
}

func TestReconstructAllStreamCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pop, err := synth.Population(rng, synth.PopulationConfig{N: 30, ZIPs: 1, BlocksPerZIP: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := ReconstructAllStream(cctx, Tabulate(pop, cfg), nil, cfg, 0, nil); err == nil {
		t.Error("cancelled context should fail")
	}
}
