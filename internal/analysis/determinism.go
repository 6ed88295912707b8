package analysis

import (
	"go/ast"
)

// deterministicPkgs names the attack/experiment packages whose outputs
// must be bit-for-bit reproducible from (seed, index) alone: the
// reconstruction tables they emit are the repository's evidence, and PRs
// 2 and 4 guarantee byte-identical results at any worker count, locally
// or over the wire. Any ambient entropy (wall clock, process-global rand)
// silently breaks that guarantee.
var deterministicPkgs = map[string]bool{
	"recon":       true,
	"census":      true,
	"pso":         true,
	"diffix":      true,
	"kanon":       true,
	"membership":  true,
	"synth":       true,
	"dist":        true,
	"experiments": true,
}

// randTopLevel lists the math/rand top-level functions that draw from the
// process-global source. Constructors (New, NewSource, NewZipf) are fine:
// the rule is that every stream must be derived from an injected seed,
// normally via par.RNG(seed, index).
var randTopLevel = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true,
}

// clockFuncs are the time package's ambient clock reads.
var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// Determinism forbids ambient entropy — wall-clock reads, the global
// math/rand source, and crypto/rand — inside the attack/experiment
// packages, where all randomness must flow from an injected *rand.Rand.
var Determinism = &Analyzer{
	Name: "determinism",
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) error {
	if !deterministicPkgs[pass.Pkg.Name] {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		if f.Test {
			continue // tests may time out, retry, and measure freely
		}
		timeName, hasTime := ImportName(f.AST, "time")
		randName, hasRand := ImportName(f.AST, "math/rand")
		for _, spec := range f.AST.Imports {
			if spec.Path.Value == `"crypto/rand"` {
				pass.Reportf(spec.Pos(), "crypto/rand in deterministic package %s: derive randomness from an injected *rand.Rand (par.RNG)", pass.Pkg.Name)
			}
		}
		if !hasTime && !hasRand {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			switch {
			case hasTime && id.Name == timeName && clockFuncs[sel.Sel.Name]:
				pass.Reportf(sel.Pos(), "time.%s in deterministic package %s: wall-clock reads make experiment output irreproducible; inject a value or move timing to the obs layer", sel.Sel.Name, pass.Pkg.Name)
			case hasRand && id.Name == randName && randTopLevel[sel.Sel.Name]:
				pass.Reportf(sel.Pos(), "global rand.%s in deterministic package %s: draws from the process-global source; use an injected *rand.Rand (par.RNG(seed, index))", sel.Sel.Name, pass.Pkg.Name)
			}
			return true
		})
	}
	return nil
}
