package sat

import "fmt"

// This file provides CNF encodings of cardinality constraints over
// variables, the building blocks the census reconstruction uses to encode
// published table cells ("exactly 3 residents of this block are females
// aged 22-24"). The workhorse is a two-sided sequential counter (Sinz
// 2005) of register width k, so a constraint over n variables with bound k
// costs O(n·k) auxiliary variables and clauses.

// counter builds sequential-counter registers over lits with width k >= 1,
// n·k variables in one slice, row by row: r[i*k+j] ⇔ at least j+1 of
// lits[0..i] are true (both implication directions, so the registers are
// exact and usable for lower bounds).
func (s *Solver) counter(lits []int, k int) ([]int, error) {
	n := len(lits)
	r := make([]int, n*k)
	for i := range r {
		r[i] = s.NewVar()
	}
	// Base case i = 0.
	if err := s.AddClause(-lits[0], r[0]); err != nil {
		return nil, err
	}
	if err := s.AddClause(lits[0], -r[0]); err != nil {
		return nil, err
	}
	for j := 1; j < k; j++ {
		if err := s.AddClause(-r[j]); err != nil {
			return nil, err
		}
	}
	for i := 1; i < n; i++ {
		prev, cur := r[(i-1)*k:i*k], r[i*k:(i+1)*k]
		for j := 0; j < k; j++ {
			// Upward implications (r true when enough lits are true).
			if err := s.AddClause(-prev[j], cur[j]); err != nil {
				return nil, err
			}
			if j == 0 {
				if err := s.AddClause(-lits[i], cur[0]); err != nil {
					return nil, err
				}
			} else {
				if err := s.AddClause(-lits[i], -prev[j-1], cur[j]); err != nil {
					return nil, err
				}
			}
			// Downward implications (r true only with support).
			if j == 0 {
				if err := s.AddClause(-cur[0], lits[i], prev[0]); err != nil {
					return nil, err
				}
			} else {
				if err := s.AddClause(-cur[j], prev[j], lits[i]); err != nil {
					return nil, err
				}
				if err := s.AddClause(-cur[j], prev[j], prev[j-1]); err != nil {
					return nil, err
				}
			}
		}
	}
	return r, nil
}

// AtMostK adds Σ vars ≤ k.
func (s *Solver) AtMostK(vars []int, k int) error {
	n := len(vars)
	if k < 0 {
		return fmt.Errorf("sat: AtMostK with k = %d", k)
	}
	if k >= n {
		return nil // vacuous
	}
	if k == 0 {
		for _, v := range vars {
			if err := s.AddClause(-v); err != nil {
				return err
			}
		}
		return nil
	}
	r, err := s.counter(vars, k)
	if err != nil {
		return err
	}
	for i := 1; i < n; i++ {
		// vars[i] ∧ (≥k among previous, the last register of row i-1) →
		// overflow.
		if err := s.AddClause(-vars[i], -r[i*k-1]); err != nil {
			return err
		}
	}
	return nil
}

// AtLeastK adds Σ vars ≥ k.
func (s *Solver) AtLeastK(vars []int, k int) error {
	n := len(vars)
	if k <= 0 {
		return nil
	}
	if k > n {
		return s.AddClause() // impossible: empty clause
	}
	if k == n {
		for _, v := range vars {
			if err := s.AddClause(v); err != nil {
				return err
			}
		}
		return nil
	}
	r, err := s.counter(vars, k)
	if err != nil {
		return err
	}
	return s.AddClause(r[n*k-1])
}

// ExactlyK adds Σ vars = k using a single shared counter.
func (s *Solver) ExactlyK(vars []int, k int) error {
	n := len(vars)
	if k < 0 || k > n {
		return s.AddClause() // impossible
	}
	if k == 0 {
		return s.AtMostK(vars, 0)
	}
	if k == n {
		return s.AtLeastK(vars, n)
	}
	r, err := s.counter(vars, k)
	if err != nil {
		return err
	}
	for i := 1; i < n; i++ {
		if err := s.AddClause(-vars[i], -r[i*k-1]); err != nil {
			return err
		}
	}
	return s.AddClause(r[n*k-1])
}

// AtMostOnePairwise adds the naive pairwise at-most-one constraint, used
// for small groups and as the ablation baseline against the sequential
// counter.
func (s *Solver) AtMostOnePairwise(vars []int) error {
	for i := 0; i < len(vars); i++ {
		for j := i + 1; j < len(vars); j++ {
			if err := s.AddClause(-vars[i], -vars[j]); err != nil {
				return err
			}
		}
	}
	return nil
}
