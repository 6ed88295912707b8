package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// tinySizes shrinks every workload so the whole test runs in seconds.
func tinySizes() sizes {
	return sizes{
		kanonScale:     20,
		kanonQuestions: 20,
		composeN:       100,
		lpN:            32,
		censusN:        40,
		censusBlocks:   4,
		qsN:            64,
		qsBatch:        8,
		qsRound:        20,
		qsEpoch:        1,
		qsPool:         10,
		qsWarm:         5,
	}
}

// tinyRounds is how many timed rounds each workload runs in the test:
// enough trials for the binomial checks to separate attack from baseline.
var tinyRounds = map[string]int{
	"pso-kanon":      6,
	"pso-compose":    10,
	"lp-recon":       2,
	"census-sat":     3,
	"qserver-fresh":  2,
	"qserver-cached": 2,
}

func tinyMeasure(t *testing.T, sp spec, trace bool) result {
	t.Helper()
	res, err := measure(sp, options{
		seed:   1,
		rounds: tinyRounds[sp.name],
		trace:  trace,
		dir:    t.TempDir(),
		setups: 1,
		sizes:  tinySizes(),
	})
	if err != nil {
		t.Fatalf("%s: %v", sp.name, err)
	}
	return res
}

// benchmarkJSON is the part of BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// deterministicCounts are work counters that must repeat exactly at one
// seed: a later change may rest a claim on them.
var deterministicCounts = []string{
	"synth.records", "pso.weight_draws", "pso.count_queries", "query.count",
	"lp.pivots", "sat.propagations", "qserver.wal_appends",
}

// TestWorkloads runs every workload at a tiny size, untraced once and
// traced twice, and checks that every emitted metric is listed in
// BENCHMARK.json with its unit, that the deterministic counts repeat, and
// that every output check passes.
func TestWorkloads(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var listed []string
	for _, w := range b.Workloads {
		listed = append(listed, w.Name)
	}
	if !reflect.DeepEqual(listed, specNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", listed, specNames())
	}
	units := func(defs []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) map[string]string {
		m := map[string]string{}
		for _, d := range defs {
			m[d.Name] = d.Unit
		}
		return m
	}
	e2e, layers := units(b.EndToEnd), units(b.PerLayer)

	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			plain := tinyMeasure(t, sp, false)
			traced := [2]result{tinyMeasure(t, sp, true), tinyMeasure(t, sp, true)}
			for _, res := range []result{plain, traced[0], traced[1]} {
				if len(res.failedChecks) > 0 {
					t.Errorf("failed checks: %s", strings.Join(res.failedChecks, "; "))
				}
				if res.attempted < 1 || res.failed != 0 {
					t.Errorf("attempted %d, failed %d", res.attempted, res.failed)
				}
			}
			checkMetrics(t, "untraced", plain.metrics, e2e)
			checkMetrics(t, "traced", traced[0].metrics, layers)
			for _, c := range deterministicCounts {
				if a, b := traced[0].counts[c], traced[1].counts[c]; a != b {
					t.Errorf("%s: %d then %d at the same seed", c, a, b)
				}
			}
		})
	}
}

// checkMetrics asserts the emitted metrics are exactly the listed ones,
// with the listed units and well-formed names.
func checkMetrics(t *testing.T, run string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, m := range got {
		if !metricName.MatchString(name) {
			t.Errorf("%s: metric name %q is not [A-Za-z0-9_.-]+", run, name)
		}
		if u, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not listed in BENCHMARK.json", run, name)
		} else if u != m.Unit {
			t.Errorf("%s: metric %s has unit %s, BENCHMARK.json says %s", run, name, m.Unit, u)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: BENCHMARK.json lists %s, the run did not emit it", run, name)
		}
	}
}

// TestCorruptedResultsFailChecks corrupts one output of each workload after
// one round (pso-kanon: its test rounds, which its baseline check needs)
// and expects its check to fail.
func TestCorruptedResultsFailChecks(t *testing.T) {
	corrupt := map[string]func(w workload){
		"pso-kanon": func(w workload) {
			for _, a := range w.(*psoGame).arms {
				a.successes = 0
			}
		},
		"pso-compose": func(w workload) { w.(*psoGame).arms[0].successes = 0 },
		"lp-recon":    func(w workload) { w.(*lpRecon).hamming[0][0] = 0.5 },
		"census-sat": func(w workload) {
			c := w.(*censusSat)
			for i, res := range c.solved[0] {
				if res.Solved && len(res.Tuples) > 0 {
					c.solved[0][i].Tuples[0].Sex ^= 1
					return
				}
			}
		},
		// The answers are checked as they arrive, so corrupt the truth they
		// are checked against and run one more round.
		"qserver-fresh": func(w workload) {
			f := w.(*freshServing)
			f.x[0] ^= 1
			if err := f.round(f.r); err != nil {
				panic(err)
			}
		},
		"qserver-cached": func(w workload) {
			c := w.(*cachedServing)
			c.x[0] ^= 1
			if err := c.round(c.r); err != nil {
				panic(err)
			}
		},
	}
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			r := &run{sz: tinySizes(), dir: t.TempDir()}
			w, err := sp.setup(r, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer w.close()
			rounds := 1
			if sp.name == "pso-kanon" {
				rounds = tinyRounds[sp.name]
			}
			for i := 0; i < rounds; i++ {
				if err := w.round(r); err != nil {
					t.Fatal(err)
				}
			}
			corrupt[sp.name](w)
			if failed := w.check(); len(failed) == 0 {
				t.Error("check passed on a corrupted result")
			} else {
				t.Logf("check failed as expected: %s", failed[0])
			}
		})
	}
}
