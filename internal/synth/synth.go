// Package synth generates the synthetic workloads that stand in for the
// paper's proprietary or protected data sources: a US-like population
// microdata file (for the GIC/Sweeney linkage and Census reconstruction
// experiments), a voter-registry style identified dataset (the auxiliary
// information in linkage attacks), and a sparse long-tailed ratings matrix
// (for the Netflix-style de-anonymization experiment).
//
// All generators are deterministic given their *rand.Rand.
package synth

import (
	"fmt"
	"math/rand"

	"singlingout/internal/dataset"
	"singlingout/internal/dist"
)

// Attribute names used by the population schema. Callers resolve indices
// via Schema.MustIndex with these constants.
const (
	AttrZIP       = "zip"
	AttrBirthDate = "birthdate" // days since 1900-01-01
	AttrAge       = "age"
	AttrSex       = "sex"
	AttrRace      = "race"
	AttrEthnicity = "ethnicity"
	AttrDisease   = "disease"
	AttrBlock     = "block"
)

// Diseases is the categorical domain of the sensitive attribute, chosen so
// that a two-level tree hierarchy (organ system, then "*") exists.
var Diseases = []string{
	"COVID", "CF", "Asthma", "Flu", "TB", // PULM
	"Crohn", "IBS", "Ulcer", // GI
	"CAD", "Arrhythmia", "Hypertension", // CARD
	"Diabetes", "Thyroid", // ENDO
}

// Races is the categorical domain of the race attribute, mirroring the six
// OMB categories used by the decennial census.
var Races = []string{"White", "Black", "AIAN", "Asian", "NHPI", "Other"}

// raceWeights approximate 2010 census proportions.
var raceWeights = []float64{0.72, 0.13, 0.01, 0.05, 0.002, 0.088}

// Sexes is the categorical domain of the sex attribute.
var Sexes = []string{"F", "M"}

// Ethnicities is the categorical domain of the ethnicity attribute.
var Ethnicities = []string{"NonHispanic", "Hispanic"}

// BirthDateMax is the largest encoded birth date (days since 1900-01-01)
// the generator produces; it corresponds to a 2010 census reference date.
const BirthDateMax = 40176 // ~110 years

// PopulationConfig controls the synthetic population generator.
type PopulationConfig struct {
	// N is the number of individuals.
	N int
	// ZIPs is the number of distinct ZIP codes; population is spread over
	// them with Zipf(1.05)-distributed sizes, mirroring the heavy skew of
	// real ZIP populations.
	ZIPs int
	// BlocksPerZIP is the number of census blocks within each ZIP.
	BlocksPerZIP int
}

// PopulationSchema returns the schema of the generated population.
func PopulationSchema(cfg PopulationConfig) *dataset.Schema {
	return dataset.MustSchema(
		dataset.Attribute{Name: AttrZIP, Kind: dataset.Int, Min: 10000, Max: 10000 + int64(cfg.ZIPs) - 1, QuasiIdentifier: true},
		dataset.Attribute{Name: AttrBirthDate, Kind: dataset.Int, Min: 0, Max: BirthDateMax, QuasiIdentifier: true},
		dataset.Attribute{Name: AttrAge, Kind: dataset.Int, Min: 0, Max: 110, QuasiIdentifier: true},
		dataset.Attribute{Name: AttrSex, Kind: dataset.Categorical, Categories: Sexes, QuasiIdentifier: true},
		dataset.Attribute{Name: AttrRace, Kind: dataset.Categorical, Categories: Races},
		dataset.Attribute{Name: AttrEthnicity, Kind: dataset.Categorical, Categories: Ethnicities},
		dataset.Attribute{Name: AttrDisease, Kind: dataset.Categorical, Categories: Diseases, Sensitive: true},
		dataset.Attribute{Name: AttrBlock, Kind: dataset.Int, Min: 0, Max: int64(cfg.ZIPs*cfg.BlocksPerZIP) - 1},
	)
}

// Population generates cfg.N individuals sampled i.i.d. from the
// population distribution (the data-generation model of Section 2.2 of the
// paper). The row index of each record is that individual's identity: the
// registry generator and the linkage scorers use row indices as ground
// truth.
func Population(rng *rand.Rand, cfg PopulationConfig) (*dataset.Dataset, error) {
	if cfg.N <= 0 || cfg.ZIPs <= 0 || cfg.BlocksPerZIP <= 0 {
		return nil, fmt.Errorf("synth: invalid population config %+v", cfg)
	}
	sample := IndividualSampler(cfg)
	d := dataset.New(PopulationSchema(cfg))
	for i := 0; i < cfg.N; i++ {
		d.MustAppend(sample(rng))
	}
	return d, nil
}

// IndividualSampler returns a sampler drawing single records i.i.d. from
// the population distribution defined by cfg — the distribution D of the
// predicate-singling-out experiments. It panics on an invalid config.
func IndividualSampler(cfg PopulationConfig) func(*rand.Rand) dataset.Record {
	if cfg.ZIPs <= 0 || cfg.BlocksPerZIP <= 0 {
		panic(fmt.Sprintf("synth: invalid population config %+v", cfg))
	}
	zipZipf := dist.NewZipf(cfg.ZIPs, 1.05)
	return func(rng *rand.Rand) dataset.Record {
		zipIdx := zipZipf.Sample(rng)
		age := sampleAge(rng)
		// Birth date consistent with age at the 2010-04-01 reference date.
		birth := BirthDateMax - int64(age)*365 - int64(rng.Intn(365))
		if birth < 0 {
			birth = 0
		}
		return dataset.Record{
			10000 + int64(zipIdx),
			birth,
			int64(age),
			int64(rng.Intn(2)),
			int64(sampleWeighted(rng, raceWeights)),
			int64(boolToInt(rng.Float64() < 0.16)),
			int64(rng.Intn(len(Diseases))),
			int64(zipIdx*cfg.BlocksPerZIP + rng.Intn(cfg.BlocksPerZIP)),
		}
	}
}

// sampleAge draws an age from a piecewise-uniform pyramid that roughly
// matches the US age distribution.
func sampleAge(rng *rand.Rand) int {
	u := rng.Float64()
	switch {
	case u < 0.24: // 0-17
		return rng.Intn(18)
	case u < 0.50: // 18-39
		return 18 + rng.Intn(22)
	case u < 0.77: // 40-64
		return 40 + rng.Intn(25)
	case u < 0.95: // 65-84
		return 65 + rng.Intn(20)
	default: // 85-110
		return 85 + rng.Intn(26)
	}
}

func sampleWeighted(rng *rand.Rand, weights []float64) int {
	u := rng.Float64()
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// RegistryPersonID is the name of the identity column in the registry.
const RegistryPersonID = "person_id"

// Registry builds an identified auxiliary dataset (in the style of the
// Cambridge voter registration used by Sweeney, or the commercial
// databases of the census re-identification narrative): for a coverage
// fraction of the population, it records the person's identity alongside
// their quasi-identifiers (ZIP, birth date, sex) and the census block
// their address geocodes to. The registry contains no sensitive
// attributes.
func Registry(rng *rand.Rand, pop *dataset.Dataset, coverage float64) (*dataset.Dataset, error) {
	if coverage < 0 || coverage > 1 {
		return nil, fmt.Errorf("synth: coverage %v outside [0,1]", coverage)
	}
	zipI := pop.Schema.MustIndex(AttrZIP)
	bdI := pop.Schema.MustIndex(AttrBirthDate)
	sexI := pop.Schema.MustIndex(AttrSex)
	blockI := pop.Schema.MustIndex(AttrBlock)
	schema := dataset.MustSchema(
		dataset.Attribute{Name: RegistryPersonID, Kind: dataset.Int, Min: 0, Max: int64(pop.Len()) - 1},
		pop.Schema.Attrs[zipI],
		pop.Schema.Attrs[bdI],
		pop.Schema.Attrs[sexI],
		pop.Schema.Attrs[blockI],
	)
	reg := dataset.New(schema)
	for i, r := range pop.Rows {
		if rng.Float64() >= coverage {
			continue
		}
		reg.MustAppend(dataset.Record{int64(i), r[zipI], r[bdI], r[sexI], r[blockI]})
	}
	return reg, nil
}

// Rating is one (movie, stars, day) triple in a user's viewing history.
type Rating struct {
	Movie int
	Stars int
	Day   int
}

// Ratings is a sparse user-by-movie matrix with long-tailed movie
// popularity, the workload for the Netflix-style de-anonymization
// experiment.
type Ratings struct {
	NumUsers  int
	NumMovies int
	ByUser    [][]Rating
}

// RatingsConfig controls the ratings generator.
type RatingsConfig struct {
	Users, Movies int
	// MeanRatings is the average number of ratings per user (geometric-ish
	// spread around it).
	MeanRatings int
	// Days is the span of rating timestamps.
	Days int
}

// GenerateRatings builds a synthetic ratings matrix. Movie choice follows
// Zipf(1.0) popularity; star ratings are biased positive like real rating
// data; timestamps are uniform.
func GenerateRatings(rng *rand.Rand, cfg RatingsConfig) (*Ratings, error) {
	if cfg.Users <= 0 || cfg.Movies <= 0 || cfg.MeanRatings <= 0 || cfg.Days <= 0 {
		return nil, fmt.Errorf("synth: invalid ratings config %+v", cfg)
	}
	z := dist.NewZipf(cfg.Movies, 1.0)
	r := &Ratings{NumUsers: cfg.Users, NumMovies: cfg.Movies, ByUser: make([][]Rating, cfg.Users)}
	for u := 0; u < cfg.Users; u++ {
		k := 1 + rng.Intn(2*cfg.MeanRatings-1) // uniform 1..2*mean-1, mean ≈ MeanRatings
		seen := make(map[int]bool, k)
		for len(seen) < k && len(seen) < cfg.Movies {
			m := z.Sample(rng)
			if seen[m] {
				continue
			}
			seen[m] = true
			stars := 1 + sampleWeighted(rng, []float64{0.05, 0.10, 0.20, 0.35, 0.30})
			r.ByUser[u] = append(r.ByUser[u], Rating{Movie: m, Stars: stars, Day: rng.Intn(cfg.Days)})
		}
	}
	return r, nil
}

// BinaryDataset draws an n-bit dataset x ∈ {0,1}^n with i.i.d. Bernoulli(p)
// bits — the data model of the Dinur–Nissim reconstruction setting, where
// x_i = 1 means individual i has the sensitive trait.
func BinaryDataset(rng *rand.Rand, n int, p float64) []int64 {
	x := make([]int64, n)
	for i := range x {
		if rng.Float64() < p {
			x[i] = 1
		}
	}
	return x
}

// SurveyConfig controls the high-dimensional survey generator used by the
// predicate-singling-out experiments: the paper's Theorem 2.10 analysis
// notes that equivalence-class predicates have negligible weight because
// "a typical dataset would include many more attributes" — this generator
// provides those attributes, all mutually independent so that
// product-of-marginal weight accounting is exact.
type SurveyConfig struct {
	// Questions is the number of binary survey answers per respondent.
	Questions int
	// Skew is the probability of answer 0 on each question (e.g. 0.8).
	Skew float64
}

// SurveyRegDateDomain is the domain size of the survey's registration-date
// attribute (attribute 0), a large-domain value that is unique per
// respondent with high probability.
const SurveyRegDateDomain = 1 << 20

// SurveySchema returns the schema: attribute 0 is the registration date,
// attributes 1..Questions are the binary answers.
func SurveySchema(cfg SurveyConfig) *dataset.Schema {
	attrs := make([]dataset.Attribute, 0, cfg.Questions+1)
	attrs = append(attrs, dataset.Attribute{
		Name: "regdate", Kind: dataset.Int, Min: 0, Max: SurveyRegDateDomain - 1, QuasiIdentifier: true,
	})
	for q := 1; q <= cfg.Questions; q++ {
		attrs = append(attrs, dataset.Attribute{
			Name: fmt.Sprintf("q%02d", q), Kind: dataset.Int, Min: 0, Max: 1, QuasiIdentifier: true,
		})
	}
	return dataset.MustSchema(attrs...)
}

// SurveySampler draws one survey record i.i.d. from the survey
// distribution. It panics on an invalid config.
func SurveySampler(cfg SurveyConfig) func(*rand.Rand) dataset.Record {
	if cfg.Questions <= 0 || cfg.Skew <= 0 || cfg.Skew >= 1 {
		panic(fmt.Sprintf("synth: invalid survey config %+v", cfg))
	}
	return func(rng *rand.Rand) dataset.Record {
		rec := make(dataset.Record, cfg.Questions+1)
		rec[0] = rng.Int63n(SurveyRegDateDomain)
		for q := 1; q <= cfg.Questions; q++ {
			if rng.Float64() >= cfg.Skew {
				rec[q] = 1
			}
		}
		return rec
	}
}
