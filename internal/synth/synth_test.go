package synth

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"singlingout/internal/dataset"
)

func TestPopulationShapeAndDomains(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := PopulationConfig{N: 5000, ZIPs: 10, BlocksPerZIP: 5}
	pop, err := Population(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pop.Len() != cfg.N {
		t.Fatalf("Len = %d", pop.Len())
	}
	zipI := pop.Schema.MustIndex(AttrZIP)
	ageI := pop.Schema.MustIndex(AttrAge)
	bdI := pop.Schema.MustIndex(AttrBirthDate)
	blockI := pop.Schema.MustIndex(AttrBlock)
	for _, r := range pop.Rows {
		if r[zipI] < 10000 || r[zipI] >= 10010 {
			t.Fatalf("zip out of range: %d", r[zipI])
		}
		if r[ageI] < 0 || r[ageI] > 110 {
			t.Fatalf("age out of range: %d", r[ageI])
		}
		if r[bdI] < 0 || r[bdI] > BirthDateMax {
			t.Fatalf("birthdate out of range: %d", r[bdI])
		}
		if r[blockI] < 0 || r[blockI] >= int64(cfg.ZIPs*cfg.BlocksPerZIP) {
			t.Fatalf("block out of range: %d", r[blockI])
		}
		// Block must belong to the record's ZIP.
		if r[blockI]/int64(cfg.BlocksPerZIP) != r[zipI]-10000 {
			t.Fatalf("block %d not in zip %d", r[blockI], r[zipI])
		}
		// Birth date must be consistent with age at the reference date.
		impliedAge := (int64(BirthDateMax) - r[bdI]) / 365
		if d := impliedAge - r[ageI]; d < 0 || d > 1 {
			t.Fatalf("birthdate %d inconsistent with age %d (implied %d)", r[bdI], r[ageI], impliedAge)
		}
	}
}

func TestPopulationRejectsBadConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range []PopulationConfig{{}, {N: 10}, {N: 10, ZIPs: 2}} {
		if _, err := Population(rng, cfg); err == nil {
			t.Errorf("config %+v should be rejected", cfg)
		}
	}
}

func TestPopulationIsDeterministic(t *testing.T) {
	cfg := PopulationConfig{N: 200, ZIPs: 4, BlocksPerZIP: 3}
	a, _ := Population(rand.New(rand.NewSource(7)), cfg)
	b, _ := Population(rand.New(rand.NewSource(7)), cfg)
	for i := range a.Rows {
		if !slices.Equal(a.Rows[i], b.Rows[i]) {
			t.Fatalf("row %d differs between identical seeds", i)
		}
	}
}

func TestPopulationZIPSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := PopulationConfig{N: 20000, ZIPs: 10, BlocksPerZIP: 2}
	pop, _ := Population(rng, cfg)
	zipI := pop.Schema.MustIndex(AttrZIP)
	counts := map[int64]int{}
	for _, r := range pop.Rows {
		counts[r[zipI]]++
	}
	if counts[10000] <= counts[10009]*2 {
		t.Errorf("expected Zipf skew: zip0=%d zip9=%d", counts[10000], counts[10009])
	}
}

func TestRegistryCoverageAndTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pop, _ := Population(rng, PopulationConfig{N: 4000, ZIPs: 5, BlocksPerZIP: 2})
	reg, err := Registry(rng, pop, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(reg.Len()) / float64(pop.Len())
	if math.Abs(frac-0.5) > 0.05 {
		t.Errorf("coverage = %v, want ~0.5", frac)
	}
	// Each registry row's QI values must equal the identified person's.
	pid := reg.Schema.MustIndex(RegistryPersonID)
	for _, attr := range []string{AttrZIP, AttrBirthDate, AttrSex, AttrBlock} {
		ri := reg.Schema.MustIndex(attr)
		pi := pop.Schema.MustIndex(attr)
		for _, row := range reg.Rows {
			person := pop.Rows[row[pid]]
			if row[ri] != person[pi] {
				t.Fatalf("registry %s mismatch for person %d", attr, row[pid])
			}
		}
	}
	if _, err := Registry(rng, pop, 1.5); err == nil {
		t.Error("coverage > 1 should be rejected")
	}
}

func TestGenerateRatings(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := RatingsConfig{Users: 500, Movies: 200, MeanRatings: 20, Days: 1000}
	r, err := GenerateRatings(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumUsers != 500 || len(r.ByUser) != 500 {
		t.Fatalf("users = %d", len(r.ByUser))
	}
	total := 0
	movieCounts := make([]int, cfg.Movies)
	for _, rs := range r.ByUser {
		if len(rs) == 0 {
			t.Fatal("every user should have at least one rating")
		}
		seen := map[int]bool{}
		for _, one := range rs {
			if one.Movie < 0 || one.Movie >= cfg.Movies {
				t.Fatalf("movie out of range: %d", one.Movie)
			}
			if one.Stars < 1 || one.Stars > 5 {
				t.Fatalf("stars out of range: %d", one.Stars)
			}
			if one.Day < 0 || one.Day >= cfg.Days {
				t.Fatalf("day out of range: %d", one.Day)
			}
			if seen[one.Movie] {
				t.Fatal("duplicate movie for one user")
			}
			seen[one.Movie] = true
			movieCounts[one.Movie]++
		}
		total += len(rs)
	}
	mean := float64(total) / 500
	if math.Abs(mean-20) > 3 {
		t.Errorf("mean ratings per user = %v, want ~20", mean)
	}
	// Popularity long tail: top movie much more rated than median movie.
	if movieCounts[0] < 4*movieCounts[cfg.Movies/2] {
		t.Errorf("expected long tail: top=%d median=%d", movieCounts[0], movieCounts[cfg.Movies/2])
	}
	if _, err := GenerateRatings(rng, RatingsConfig{}); err == nil {
		t.Error("bad config should be rejected")
	}
}

func TestBinaryDataset(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := BinaryDataset(rng, 10000, 0.3)
	ones := int64(0)
	for _, b := range x {
		if b != 0 && b != 1 {
			t.Fatalf("non-binary value %d", b)
		}
		ones += b
	}
	frac := float64(ones) / 10000
	if math.Abs(frac-0.3) > 0.02 {
		t.Errorf("fraction of ones = %v, want ~0.3", frac)
	}
}

func TestPopulationSchemaQuasiIdentifiers(t *testing.T) {
	s := PopulationSchema(PopulationConfig{N: 20000, ZIPs: 20, BlocksPerZIP: 40})
	qi := s.QuasiIdentifiers()
	want := map[string]bool{AttrZIP: true, AttrBirthDate: true, AttrAge: true, AttrSex: true}
	if len(qi) != len(want) {
		t.Fatalf("QI count = %d, want %d", len(qi), len(want))
	}
	for _, i := range qi {
		if !want[s.Attrs[i].Name] {
			t.Errorf("unexpected QI %q", s.Attrs[i].Name)
		}
	}
	var _ *dataset.Schema = s
}

func TestSurveySchemaShape(t *testing.T) {
	cfg := SurveyConfig{Questions: 12, Skew: 0.8}
	s := SurveySchema(cfg)
	if len(s.Attrs) != 13 {
		t.Fatalf("attrs = %d, want 13", len(s.Attrs))
	}
	if s.Attrs[0].Name != "regdate" || s.Attrs[0].Max != SurveyRegDateDomain-1 {
		t.Errorf("regdate attribute wrong: %+v", s.Attrs[0])
	}
	for q := 1; q <= 12; q++ {
		if s.Attrs[q].Min != 0 || s.Attrs[q].Max != 1 {
			t.Errorf("question %d domain wrong: %+v", q, s.Attrs[q])
		}
	}
}

func TestSurveySamplerSkewAndDomain(t *testing.T) {
	cfg := SurveyConfig{Questions: 6, Skew: 0.8}
	sample := SurveySampler(cfg)
	rng := rand.New(rand.NewSource(1))
	zeros := 0
	const n = 20000
	for i := 0; i < n; i++ {
		r := sample(rng)
		if len(r) != 7 {
			t.Fatalf("record width %d", len(r))
		}
		if r[0] < 0 || r[0] >= SurveyRegDateDomain {
			t.Fatalf("regdate out of domain: %d", r[0])
		}
		for q := 1; q <= 6; q++ {
			if r[q] != 0 && r[q] != 1 {
				t.Fatalf("answer out of domain: %d", r[q])
			}
			if r[q] == 0 {
				zeros++
			}
		}
	}
	frac := float64(zeros) / float64(n*6)
	if math.Abs(frac-0.8) > 0.01 {
		t.Errorf("zero fraction = %v, want ~0.8", frac)
	}
}

func TestSurveySamplerDeterministic(t *testing.T) {
	cfg := SurveyConfig{Questions: 4, Skew: 0.7}
	a := SurveySampler(cfg)(rand.New(rand.NewSource(5)))
	b := SurveySampler(cfg)(rand.New(rand.NewSource(5)))
	if !slices.Equal(a, b) {
		t.Error("same seed should give identical records")
	}
}

func TestSurveySamplerPanicsOnBadConfig(t *testing.T) {
	for i, cfg := range []SurveyConfig{{}, {Questions: 5}, {Questions: 5, Skew: 1}, {Questions: 0, Skew: 0.5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d should panic", i)
				}
			}()
			SurveySampler(cfg)
		}()
	}
}

func TestIndividualSamplerPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	IndividualSampler(PopulationConfig{})
}
