// Command anonymize k-anonymizes population microdata (CSV in the synth
// population schema) with Mondrian or full-domain generalization, reports
// information-loss and diversity metrics, and optionally audits the
// release with the Theorem 2.10 predicate-singling-out attack.
//
// Usage:
//
//	anonymize -generate 5000 -out raw.csv          # make synthetic input
//	anonymize -in raw.csv -k 5 -alg mondrian -audit
//
// The shared observability flags (-metrics for a JSONL run journal,
// -serve for the live HTTP endpoint, -spans for the Chrome trace-event
// worker timeline) and the standard profiling flags (-cpuprofile,
// -memprofile, -trace) are also accepted.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"singlingout/internal/dataset"
	"singlingout/internal/kanon"
	"singlingout/internal/obs"
	"singlingout/internal/obs/serve"
	"singlingout/internal/pso"
	"singlingout/internal/synth"
)

type options struct {
	generate int
	in, out  string
	k        int
	alg      string
	qi       string
	lDiv     int
	audit    bool
	seed     int64
}

func main() {
	var o options
	flag.IntVar(&o.generate, "generate", 0, "generate a synthetic population of this size and exit")
	flag.StringVar(&o.in, "in", "", "input CSV (synth population schema)")
	flag.StringVar(&o.out, "out", "", "output CSV path (default stdout summary only)")
	flag.IntVar(&o.k, "k", 5, "anonymity parameter k")
	flag.StringVar(&o.alg, "alg", "mondrian", "anonymizer: mondrian or fulldomain")
	flag.StringVar(&o.qi, "qi", "zip,birthdate,sex", "comma-separated quasi-identifier attributes")
	flag.IntVar(&o.lDiv, "ldiv", 0, "require at least this ℓ-diversity of the disease attribute (mondrian only)")
	flag.BoolVar(&o.audit, "audit", false, "run the Theorem 2.10 PSO attack against the release")
	flag.Int64Var(&o.seed, "seed", 1, "random seed")
	tool := serve.AddToolFlags(flag.CommandLine, "anonymize")
	flag.Parse()

	if err := tool.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "anonymize: %v\n", err)
		os.Exit(1)
	}
	status := 0
	if err := run(tool, o); err != nil {
		fmt.Fprintf(os.Stderr, "anonymize: %v\n", err)
		status = 1
	}
	if err := tool.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "anonymize: %v\n", err)
		if status == 0 {
			status = 1
		}
	}
	os.Exit(status)
}

func run(tool *serve.Tool, o options) error {
	rng := rand.New(rand.NewSource(o.seed))
	cfg := synth.PopulationConfig{N: o.generate, ZIPs: 20, BlocksPerZIP: 10}
	tool.Emit(obs.Event{Phase: "run_start", Seed: o.seed})

	if o.generate > 0 {
		tool.SetPhase("generate")
		start := time.Now()
		pop, err := synth.Population(rng, cfg)
		if err != nil {
			return err
		}
		w := os.Stdout
		if o.out != "" {
			f, err := os.Create(o.out)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := pop.WriteCSV(w); err != nil {
			return err
		}
		tool.Emit(obs.Event{
			Phase:   "experiment",
			ID:      "anonymize.generate",
			Seed:    o.seed,
			Seconds: time.Since(start).Seconds(),
			Sizes:   map[string]int{"rows": pop.Len()},
		})
		tool.Emit(obs.Event{Phase: "run_end", Seed: o.seed, Seconds: time.Since(start).Seconds()})
		tool.SetPhase("done")
		return nil
	}

	if o.in == "" {
		return fmt.Errorf("need -in CSV or -generate N (see -h)")
	}
	f, err := os.Open(o.in)
	if err != nil {
		return err
	}
	defer f.Close()
	// The CSV must match the synth population schema; infer the ZIP count
	// from the widest possible config (ReadCSV validates domains).
	schema := synth.PopulationSchema(synth.PopulationConfig{N: 1, ZIPs: 90000, BlocksPerZIP: 10})
	d, err := dataset.ReadCSV(f, schema)
	if err != nil {
		return err
	}

	var qi []int
	for _, name := range strings.Split(o.qi, ",") {
		i, ok := d.Schema.Index(strings.TrimSpace(name))
		if !ok {
			return fmt.Errorf("unknown attribute %q", name)
		}
		qi = append(qi, i)
	}
	sens := d.Schema.MustIndex(synth.AttrDisease)

	runStart := time.Now()
	tool.SetPhase(o.alg)
	anonStart := time.Now()
	var rel *kanon.Release
	switch o.alg {
	case "mondrian":
		rel, err = kanon.Mondrian(d, qi, o.k, kanon.MondrianOptions{
			Policy:        kanon.RelaxedBalanced,
			MinLDiversity: o.lDiv,
			SensitiveAttr: sens,
		})
	case "fulldomain":
		hs := map[int]*dataset.IntRangeHierarchy{}
		for _, a := range qi {
			attr := &d.Schema.Attrs[a]
			// A categorical attribute has no Min or Max: its cells index
			// its categories from 0.
			size := attr.DomainSize()
			lo, hi := attr.Min, attr.Min+size-1
			switch attr.Name {
			case synth.AttrZIP:
				hs[a], err = dataset.NewIntRangeHierarchy(lo, hi, 10, 100, 1000, size)
			case synth.AttrBirthDate:
				hs[a], err = dataset.NewIntRangeHierarchy(lo, hi, 365, 3650, size)
			case synth.AttrAge:
				hs[a], err = dataset.NewIntRangeHierarchy(lo, hi, 5, 20, size)
			default:
				hs[a], err = dataset.NewIntRangeHierarchy(lo, hi, size)
			}
			if err != nil {
				return err
			}
		}
		rel, _, err = kanon.FullDomain(d, qi, o.k, kanon.FullDomainOptions{
			Hierarchies: hs,
			MaxSuppress: d.Len() / 20,
		})
	default:
		return fmt.Errorf("unknown algorithm %q", o.alg)
	}
	if err != nil {
		return err
	}
	tool.Emit(obs.Event{
		Phase:   "experiment",
		ID:      "anonymize." + o.alg,
		Seed:    o.seed,
		Seconds: time.Since(anonStart).Seconds(),
		Sizes: map[string]int{
			"records":    d.Len(),
			"classes":    len(rel.Classes),
			"suppressed": len(rel.Suppressed),
			"k":          o.k,
		},
	})

	fmt.Printf("release: %d classes, %d suppressed of %d records (k=%d, %s)\n",
		len(rel.Classes), len(rel.Suppressed), d.Len(), o.k, o.alg)
	fmt.Printf("  k-anonymous:      %v\n", rel.IsKAnonymous())
	fmt.Printf("  discernibility:   %d\n", kanon.Discernibility(rel, d.Len()))
	fmt.Printf("  avg class size:   %.2f×k\n", kanon.AvgClassSize(rel))
	fmt.Printf("  gen. info loss:   %.3f\n", kanon.GenILoss(rel))
	fmt.Printf("  ℓ-diversity:      %d\n", kanon.LDiversity(rel, d, sens))
	fmt.Printf("  t-closeness:      %.3f\n", kanon.TCloseness(rel, d, sens))

	if o.out != "" {
		g, err := os.Create(o.out)
		if err != nil {
			return err
		}
		defer g.Close()
		if err := kanon.WriteGeneralizedCSV(g, d, rel); err != nil {
			return err
		}
		fmt.Printf("wrote generalized release to %s\n", o.out)
	}

	if o.audit {
		tool.SetPhase("audit")
		auditStart := time.Now()
		sampler := synth.IndividualSampler(synth.PopulationConfig{N: 1, ZIPs: 90000, BlocksPerZIP: 10})
		att := pso.KAnonClass{Sample: sampler, WeightSamples: 2000}
		p, err := att.Attack(rng, rel, d.Len())
		if err != nil {
			return err
		}
		count := pso.IsolationCount(p, d)
		tool.Emit(obs.Event{
			Phase:   "experiment",
			ID:      "anonymize.audit",
			Seed:    o.seed,
			Seconds: time.Since(auditStart).Seconds(),
			Sizes:   map[string]int{"matches": count},
		})
		fmt.Printf("PSO audit (Theorem 2.10 attack): predicate %s\n", p.Describe())
		fmt.Printf("  matches %d record(s) in the raw data; isolation (singling out) %v\n", count, count == 1)
		fmt.Printf("  expected isolation probability ≈ 37%% per attempt\n")
	}
	tool.Emit(obs.Event{Phase: "run_end", Seed: o.seed, Seconds: time.Since(runStart).Seconds()})
	tool.SetPhase("done")
	return nil
}
