// Package census reproduces the database-reconstruction pipeline the paper
// describes for the 2010 US Decennial Census ([7], [24]): block-level
// statistical tables are published from microdata, an attacker encodes the
// tables as a SAT instance and reconstructs person-level records, and the
// reconstructed records are re-identified by linkage against an identified
// auxiliary registry (the "commercial database" of the paper's narrative).
//
// The published tables mirror the structure of the SF1 tables used in the
// real attack at reduced scale: per census block, joint counts of
// sex × age-bucket, race × ethnicity, and sex × race.
package census

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"singlingout/internal/dataset"
	"singlingout/internal/obs"
	"singlingout/internal/par"
	"singlingout/internal/query"
	"singlingout/internal/sat"
	"singlingout/internal/synth"
)

// Metrics recorded into obs.Default() by the census pipeline. Each
// published table cell the attacker encodes is the answer to one counting
// query over the block's microdata, so its consumption is accounted under
// query.MetricQueries — the same name the oracle-based attacks use —
// keeping query counts comparable across pipelines.
var (
	mTableQueries  = obs.Default().Counter(query.MetricQueries)
	mCensusQueries = obs.Default().Counter("census.table_queries")
	mBlocks        = obs.Default().Counter("census.blocks")
	mBlocksSolved  = obs.Default().Counter("census.blocks_solved")
	mBlocksUnique  = obs.Default().Counter("census.blocks_unique")
	mPersons       = obs.Default().Counter("census.persons")
	mExactRecords  = obs.Default().Counter("census.exact_records")
	mExactFraction = obs.Default().Gauge("census.exact_fraction")
	mBlockNS       = obs.Default().Histogram("census.block_ns")
)

// ErrInconsistentTables is returned by ReconstructBlock when the supplied
// tables admit no microdata at all — the expected outcome for tables that
// were noised before publication.
var ErrInconsistentTables = errors.New("tables jointly unsatisfiable")

// Config controls tabulation granularity.
type Config struct {
	// AgeBucketWidth is the width in years of published age buckets
	// (default 10).
	AgeBucketWidth int
}

// DefaultConfig returns the standard experiment configuration.
func DefaultConfig() Config { return Config{AgeBucketWidth: 10} }

func (c Config) bucketWidth() int {
	if c.AgeBucketWidth <= 0 {
		return 10
	}
	return c.AgeBucketWidth
}

// Buckets returns the number of age buckets.
func (c Config) Buckets() int { return (110 + c.bucketWidth()) / c.bucketWidth() }

// Tuple is one reconstructed (or true) person abstraction at table
// granularity.
type Tuple struct {
	Sex       int
	AgeBucket int
	Race      int
	Ethnicity int
}

// numCells returns the joint domain size.
func (c Config) numCells() int { return 2 * c.Buckets() * 6 * 2 }

// cellTuple unflattens a cell id.
func (c Config) cellTuple(id int) Tuple {
	t := Tuple{Ethnicity: id % 2}
	id /= 2
	t.Race = id % 6
	id /= 6
	t.AgeBucket = id % c.Buckets()
	t.Sex = id / c.Buckets()
	return t
}

// BlockTables is the published tabulation of one census block.
type BlockTables struct {
	Block  int64
	Total  int
	SexAge map[[2]int]int // (sex, ageBucket) -> count
	RaceEt map[[2]int]int // (race, ethnicity) -> count
	SexRc  map[[2]int]int // (sex, race) -> count
}

// TrueTuples extracts ground-truth tuples per block from the population.
func TrueTuples(pop *dataset.Dataset, cfg Config) map[int64][]Tuple {
	sexI := pop.Schema.MustIndex(synth.AttrSex)
	ageI := pop.Schema.MustIndex(synth.AttrAge)
	raceI := pop.Schema.MustIndex(synth.AttrRace)
	ethI := pop.Schema.MustIndex(synth.AttrEthnicity)
	blockI := pop.Schema.MustIndex(synth.AttrBlock)
	out := map[int64][]Tuple{}
	for _, r := range pop.Rows {
		t := Tuple{
			Sex:       int(r[sexI]),
			AgeBucket: int(r[ageI]) / cfg.bucketWidth(),
			Race:      int(r[raceI]),
			Ethnicity: int(r[ethI]),
		}
		out[r[blockI]] = append(out[r[blockI]], t)
	}
	return out
}

// Tabulate publishes block tables for every inhabited block.
func Tabulate(pop *dataset.Dataset, cfg Config) []BlockTables {
	truth := TrueTuples(pop, cfg)
	blocks := make([]int64, 0, len(truth))
	for b := range truth {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	out := make([]BlockTables, 0, len(blocks))
	for _, b := range blocks {
		bt := BlockTables{
			Block:  b,
			SexAge: map[[2]int]int{},
			RaceEt: map[[2]int]int{},
			SexRc:  map[[2]int]int{},
		}
		for _, t := range truth[b] {
			bt.Total++
			bt.SexAge[[2]int{t.Sex, t.AgeBucket}]++
			bt.RaceEt[[2]int{t.Race, t.Ethnicity}]++
			bt.SexRc[[2]int{t.Sex, t.Race}]++
		}
		out = append(out, bt)
	}
	return out
}

// BlockResult is the outcome of reconstructing one block.
type BlockResult struct {
	Block int64
	Size  int
	// Solved reports whether any consistent assignment was found within
	// the conflict budget.
	Solved bool
	// Unique reports whether the consistent assignment was the only one
	// (checked by a second solver run with the first multiset blocked).
	Unique bool
	// Tuples is a reconstructed multiset of person abstractions.
	Tuples []Tuple
	// Exact is the size of the multiset intersection between Tuples and
	// the true block tuples (records reconstructed exactly).
	Exact int
}

// StreamStep is one intermediate solve of a streaming block
// reconstruction: the attacker has encoded Queries published table cells
// so far and re-solved the growing instance. When a consistent
// assignment exists within the per-call conflict budget, Solved is true
// and Exact scores it against the supplied truth (multiset
// intersection). Stats is the solver's cumulative cost for this block —
// decisions/restarts/conflicts accrued across every incremental call,
// learned clauses included — so convergence curves can plot accuracy
// against solver work, not just against queries.
type StreamStep struct {
	Block   int64
	Queries int
	Size    int
	Solved  bool
	Exact   int
	Stats   sat.Stats
}

// ReconstructBlock encodes the published tables of one block as CNF and
// solves for the person-level records. Symmetry between persons is broken
// with a lexicographic ordering chain, so each candidate multiset
// corresponds to exactly one model and uniqueness can be decided with a
// single extra solver call. It is the batch wrapper over
// ReconstructBlockStream with no step callback: one solve with every
// table encoded, each person ranging over the block's table-consistent
// cells only.
func ReconstructBlock(bt BlockTables, cfg Config, maxConflicts int64) (BlockResult, error) {
	return ReconstructBlockStream(bt, cfg, maxConflicts, nil, nil)
}

// ReconstructBlockStream is the anytime form of ReconstructBlock: it adds
// the published count constraints one table cell at a time and, when
// onStep is non-nil, re-solves after each cell and reports the step — a
// convergence curve of reconstruction accuracy (scored against truth)
// versus table cells consumed. The solver instance persists across the
// incremental calls, so every re-solve keeps the learned clauses,
// activity scores and saved phases of the previous ones instead of
// restarting cold; MaxConflicts budgets each individual solver call.
//
// Each person is encoded as a one-hot choice over a domain of joint
// cells. With a non-nil onStep the domain is every joint cell: a zero
// count may only rule cells out once its table cell has been consumed.
// With a nil onStep every table is known before the only solve, so the
// domain is pruned to the table-consistent cells — those whose sex×age,
// race×ethnicity and sex×race counts are all positive. The pruned cells
// are exactly the ones the zero counts would force false at the root, so
// the set of models, and with it Solved and Unique, is the same either
// way; only a block with several consistent multisets may return a
// different one. Domains keep cell-id order, so the lexicographic
// symmetry breaking and the uniqueness check mean the same on both.
//
// A mid-stream Unsat means the cells consumed so far are already jointly
// unsatisfiable; it surfaces as ErrInconsistentTables just like the
// batch path. A mid-stream Unknown (budget exhausted) reports the step
// with Solved false and continues.
func ReconstructBlockStream(bt BlockTables, cfg Config, maxConflicts int64, truth []Tuple, onStep func(StreamStep)) (BlockResult, error) {
	res := BlockResult{Block: bt.Block, Size: bt.Total}
	if bt.Total == 0 {
		// Nobody to place: the empty block is the only reconstruction,
		// and it exists only if no table publishes a resident.
		for _, tab := range []map[[2]int]int{bt.SexAge, bt.RaceEt, bt.SexRc} {
			for _, c := range tab {
				if c != 0 {
					return res, fmt.Errorf("census: block %d: %w", bt.Block, ErrInconsistentTables)
				}
			}
		}
		res.Solved, res.Unique = true, true
		return res, nil
	}
	sp := mBlockNS.Span()
	defer sp.End()
	var domain []Tuple
	if onStep == nil {
		domain = cfg.tableDomain(bt)
	} else {
		domain = cfg.fullDomain()
	}
	cells := len(domain)
	s := sat.New()
	s.MaxConflicts = maxConflicts
	// x[p][c]: person p has the joint cell domain[c].
	x := make([][]int, bt.Total)
	for p := range x {
		x[p] = make([]int, cells)
		for c := range x[p] {
			x[p][c] = s.NewVar()
		}
		if err := s.AddClause(x[p]...); err != nil {
			return res, err
		}
		if err := s.AtMostK(x[p], 1); err != nil {
			return res, err
		}
	}
	queries := 0
	// step re-solves the instance as encoded so far and reports it. The
	// solver returns at decision level 0 after Unknown but at the final
	// decision level after Sat, so Backtrack reopens it for the next
	// cell's clauses — keeping everything learned.
	step := func() error {
		if onStep == nil {
			return nil
		}
		st := StreamStep{Block: bt.Block, Queries: queries, Size: bt.Total}
		switch s.Solve() {
		case sat.Unsat:
			return fmt.Errorf("census: block %d: %w", bt.Block, ErrInconsistentTables)
		case sat.Sat:
			st.Solved = true
			if truth != nil {
				st.Exact = MultisetIntersection(extractTuples(s, x, domain), truth)
			}
			s.Backtrack()
		}
		st.Stats = s.Stats()
		onStep(st)
		return nil
	}
	// Published-count constraints. Each group is one published counting
	// query the attacker consumes, even when (in a pruned domain) a zero
	// count has no cells left to constrain.
	addGroup := func(members func(t Tuple) bool, count int) error {
		mTableQueries.Add(1)
		mCensusQueries.Add(1)
		queries++
		var in []int
		for c, t := range domain {
			if members(t) {
				in = append(in, c)
			}
		}
		vars := make([]int, 0, len(x)*len(in))
		for p := range x {
			for _, c := range in {
				vars = append(vars, x[p][c])
			}
		}
		if err := s.ExactlyK(vars, count); err != nil {
			return err
		}
		return step()
	}
	for sex := 0; sex < 2; sex++ {
		for b := 0; b < cfg.Buckets(); b++ {
			sex, b := sex, b
			if err := addGroup(func(t Tuple) bool { return t.Sex == sex && t.AgeBucket == b }, bt.SexAge[[2]int{sex, b}]); err != nil {
				return res, err
			}
		}
	}
	for race := 0; race < 6; race++ {
		for eth := 0; eth < 2; eth++ {
			race, eth := race, eth
			if err := addGroup(func(t Tuple) bool { return t.Race == race && t.Ethnicity == eth }, bt.RaceEt[[2]int{race, eth}]); err != nil {
				return res, err
			}
		}
	}
	for sex := 0; sex < 2; sex++ {
		for race := 0; race < 6; race++ {
			sex, race := sex, race
			if err := addGroup(func(t Tuple) bool { return t.Sex == sex && t.Race == race }, bt.SexRc[[2]int{sex, race}]); err != nil {
				return res, err
			}
		}
	}
	// Symmetry breaking: cellid_p <= cellid_{p+1} via threshold chains
	// over domain positions, which are in cell-id order.
	// t[p][c] ⇔ position_p >= c, for c in 1..cells-1.
	if bt.Total > 1 {
		thr := make([][]int, bt.Total)
		for p := range thr {
			thr[p] = make([]int, cells) // index c>=1 used
			for c := cells - 1; c >= 1; c-- {
				thr[p][c] = s.NewVar()
				// x[p][c] -> t[p][c]
				if err := s.AddClause(-x[p][c], thr[p][c]); err != nil {
					return res, err
				}
				if c+1 < cells {
					// t[p][c+1] -> t[p][c]
					if err := s.AddClause(-thr[p][c+1], thr[p][c]); err != nil {
						return res, err
					}
					// t[p][c] -> x[p][c] ∨ t[p][c+1]
					if err := s.AddClause(-thr[p][c], x[p][c], thr[p][c+1]); err != nil {
						return res, err
					}
				} else {
					// t[p][cells-1] -> x[p][cells-1]
					if err := s.AddClause(-thr[p][c], x[p][c]); err != nil {
						return res, err
					}
				}
			}
		}
		for p := 0; p+1 < bt.Total; p++ {
			for c := 1; c < cells; c++ {
				// cellid_p >= c -> cellid_{p+1} >= c.
				if err := s.AddClause(-thr[p][c], thr[p+1][c]); err != nil {
					return res, err
				}
			}
		}
	}
	switch s.Solve() {
	case sat.Unsat:
		// Unsatisfiable tables cannot arise from honest tabulation, but
		// do arise when callers feed noised tables (the DP defense).
		return res, fmt.Errorf("census: block %d: %w", bt.Block, ErrInconsistentTables)
	case sat.Unknown:
		return res, nil // budget exhausted; Solved stays false
	}
	res.Solved = true
	res.Tuples = extractTuples(s, x, domain)
	// Uniqueness: block this model over the x variables and re-solve. With
	// lex ordering, any second model is a genuinely different multiset.
	var xs []int
	for _, row := range x {
		xs = append(xs, row...)
	}
	if err := s.BlockModel(xs); err != nil {
		return res, err
	}
	switch s.Solve() {
	case sat.Unsat:
		res.Unique = true
	case sat.Unknown:
		// Could not verify uniqueness within budget; leave Unique false.
	}
	return res, nil
}

// fullDomain returns every joint cell in cell-id order.
func (c Config) fullDomain() []Tuple {
	out := make([]Tuple, c.numCells())
	for id := range out {
		out[id] = c.cellTuple(id)
	}
	return out
}

// tableDomain returns, in cell-id order, the joint cells the block's
// tables allow: every one of the cell's three published counts is
// positive.
func (c Config) tableDomain(bt BlockTables) []Tuple {
	var out []Tuple
	for _, t := range c.fullDomain() {
		if bt.SexAge[[2]int{t.Sex, t.AgeBucket}] > 0 &&
			bt.RaceEt[[2]int{t.Race, t.Ethnicity}] > 0 &&
			bt.SexRc[[2]int{t.Sex, t.Race}] > 0 {
			out = append(out, t)
		}
	}
	return out
}

// extractTuples reads each person's chosen cell off a Sat model, where
// x[p][c] stands for person p having the cell domain[c].
func extractTuples(s *sat.Solver, x [][]int, domain []Tuple) []Tuple {
	out := make([]Tuple, 0, len(x))
	for _, row := range x {
		for c, v := range row {
			if s.Value(v) {
				out = append(out, domain[c])
				break
			}
		}
	}
	return out
}

// MultisetIntersection returns the number of tuples shared between two
// multisets.
func MultisetIntersection(a, b []Tuple) int {
	count := map[Tuple]int{}
	for _, t := range a {
		count[t]++
	}
	n := 0
	for _, t := range b {
		if count[t] > 0 {
			count[t]--
			n++
		}
	}
	return n
}

// Summary aggregates a reconstruction run.
type Summary struct {
	Blocks        int
	Solved        int
	Unique        int
	Persons       int
	ExactRecords  int     // tuples reconstructed exactly (multiset match)
	ExactFraction float64 // ExactRecords / Persons
}

// ReconstructAll solves every block's SAT instance on a pool of `workers`
// goroutines (<= 0 selects GOMAXPROCS) and returns the results in table
// order. Each block is an independent instance and the solver is
// deterministic, so the results are identical at any worker count. Blocks
// whose tables are jointly unsatisfiable (the DP-noise defense) count as
// unsolved rather than erroring; any other solver error cancels the
// remaining blocks and is returned.
func ReconstructAll(tables []BlockTables, cfg Config, maxConflictsPerBlock int64, workers int) ([]BlockResult, error) {
	results := make([]BlockResult, len(tables))
	err := par.ForEach(workers, len(tables), func(i int) error {
		r, err := ReconstructBlock(tables[i], cfg, maxConflictsPerBlock)
		if errors.Is(err, ErrInconsistentTables) {
			r = BlockResult{Block: tables[i].Block, Size: tables[i].Total}
		} else if err != nil {
			return err
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// ReconstructAllStream is the anytime form of ReconstructAll: it solves
// the blocks sequentially (a convergence curve is a cumulative series, so
// the streaming path is inherently ordered) with an intermediate solve
// after every published table cell, reporting each via onStep. truth maps
// block id to the true tuples (as from TrueTuples) so steps carry exact
// scores; blocks whose tables turn jointly unsatisfiable mid-stream count
// as unsolved, matching the batch path. ctx cancellation is checked
// between blocks.
func ReconstructAllStream(ctx context.Context, tables []BlockTables, truth map[int64][]Tuple, cfg Config, maxConflictsPerBlock int64, onStep func(StreamStep)) ([]BlockResult, error) {
	results := make([]BlockResult, len(tables))
	for i, bt := range tables {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("census: streaming reconstruction: %w", err)
		}
		r, err := ReconstructBlockStream(bt, cfg, maxConflictsPerBlock, truth[bt.Block], onStep)
		if errors.Is(err, ErrInconsistentTables) {
			r = BlockResult{Block: bt.Block, Size: bt.Total}
		} else if err != nil {
			return nil, err
		}
		results[i] = r
	}
	return results, nil
}

// Reconstruct runs the attack over all blocks of honestly tabulated data
// and scores it against the ground truth, solving blocks concurrently on
// `workers` goroutines (<= 0 selects GOMAXPROCS).
func Reconstruct(pop *dataset.Dataset, cfg Config, maxConflictsPerBlock int64, workers int) ([]BlockResult, Summary, error) {
	return ReconstructTables(Tabulate(pop, cfg), TrueTuples(pop, cfg), cfg, maxConflictsPerBlock, workers)
}

// SizeBucket labels a block-size range in the vulnerability breakdown.
type SizeBucket struct {
	Lo, Hi int // inclusive block-size range
	Blocks int
	// Persons and ExactRecords accumulate over solved blocks in range.
	Persons      int
	ExactRecords int
	Unique       int
}

// ExactFraction returns the fraction of persons reconstructed exactly in
// this bucket.
func (b SizeBucket) ExactFraction() float64 {
	if b.Persons == 0 {
		return 0
	}
	return float64(b.ExactRecords) / float64(b.Persons)
}

// SummaryBySize breaks reconstruction quality down by block size — the
// Census Bureau's own finding was that small blocks are the most exposed.
func SummaryBySize(results []BlockResult) []SizeBucket {
	buckets := []SizeBucket{{Lo: 1, Hi: 2}, {Lo: 3, Hi: 5}, {Lo: 6, Hi: 9}, {Lo: 10, Hi: 1 << 30}}
	for _, r := range results {
		if r.Size == 0 {
			continue
		}
		for i := range buckets {
			if r.Size >= buckets[i].Lo && r.Size <= buckets[i].Hi {
				buckets[i].Blocks++
				if r.Solved {
					buckets[i].Persons += r.Size
					buckets[i].ExactRecords += r.Exact
				}
				if r.Unique {
					buckets[i].Unique++
				}
				break
			}
		}
	}
	return buckets
}
