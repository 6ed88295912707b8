// Package singlingout reproduces Kobbi Nissim's PODS 2021 invited paper
// "Privacy: From Database Reconstruction to Legal Theorems" as a working
// Go library: the reconstruction and re-identification attacks the paper
// surveys (Dinur–Nissim, Sweeney linkage, Netflix scoreboard, the 2010
// census SAT reconstruction, Diffix LP reconstruction, Homer membership
// inference), the technologies it interrogates (k-anonymity with its
// variants, differential privacy), and its primary contribution — the
// predicate-singling-out framework with its experiment harness and
// legal-theorem layer.
//
// The implementation lives under internal/; runnable entry points are the
// commands under cmd/ and the programs under examples/. cmd/repro
// regenerates every experiment table recorded in EXPERIMENTS.md.
package singlingout
