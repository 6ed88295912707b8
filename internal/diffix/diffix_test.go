package diffix

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"singlingout/internal/query"
	"singlingout/internal/synth"
)

var ctx = context.Background()

func TestStickyNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := &Cloak{X: synth.BinaryDataset(rng, 50, 0.5), SD: 2, Threshold: 5, Seed: 7}
	q := []int{0, 3, 7, 9, 12, 20}
	if err := StickinessCheck(ctx, c, q, 10); err != nil {
		t.Fatal(err)
	}
	// A different query gets (almost surely) different noise.
	a1, _ := query.AnswerOne(ctx, c, q)
	a2, _ := query.AnswerOne(ctx, c, []int{0, 3, 7, 9, 12, 21})
	if a1 == a2 {
		t.Error("distinct queries returned identical answers (suspicious)")
	}
	// Different seeds decorrelate answers to the same query.
	c2 := &Cloak{X: c.X, SD: 2, Threshold: 5, Seed: 8}
	b1, _ := query.AnswerOne(ctx, c2, q)
	if b1 == a1 {
		t.Error("different cloak seeds returned identical noise")
	}
}

func TestSuppression(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := &Cloak{X: synth.BinaryDataset(rng, 50, 0.5), SD: 1, Threshold: 10, Seed: 1}
	_, err := query.AnswerOne(ctx, c, []int{1, 2, 3})
	if !errors.Is(err, ErrSuppressed) {
		t.Fatalf("want suppression, got %v", err)
	}
	if c.Suppressed() != 1 {
		t.Errorf("Suppressed = %d", c.Suppressed())
	}
	if _, err := query.AnswerOne(ctx, c, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}); err != nil {
		t.Errorf("large query should be answered: %v", err)
	}
	if c.Queries() != 1 {
		t.Errorf("Queries = %d", c.Queries())
	}
	if _, err := query.AnswerOne(ctx, c, make([]int, 11)); err == nil {
		// all zeros: index 0 repeated — a malformed query the cloak must
		// reject, like every other oracle (it would count user 0 eleven
		// times while the LP decoder counts them once).
		t.Error("duplicate-index query should fail")
	} else if !errors.Is(err, query.ErrInvalidQuery) {
		t.Errorf("malformed query should wrap ErrInvalidQuery, got %v", err)
	}
	bad := make([]int, 12)
	bad[3] = 99
	if _, err := query.AnswerOne(ctx, c, bad); err == nil {
		t.Error("out-of-range user should fail")
	}
}

func TestAnswerBatchFailsAsUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c := &Cloak{X: synth.BinaryDataset(rng, 30, 0.5), SD: 1, Threshold: 5, Seed: 2}
	// Second query is below the suppression threshold: the whole batch
	// is refused and no answers leak.
	if _, err := c.Answer(ctx, [][]int{{0, 1, 2, 3, 4, 5}, {0}}); !errors.Is(err, ErrSuppressed) {
		t.Fatalf("want suppression for the batch, got %v", err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Answer(cancelled, [][]int{{0, 1, 2, 3, 4, 5}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestAttackReconstructs(t *testing.T) {
	// The headline result of [13]: sticky noise + suppression do not
	// prevent LP reconstruction.
	rng := rand.New(rand.NewSource(3))
	n := 64
	c := &Cloak{X: synth.BinaryDataset(rng, n, 0.5), SD: 1.5, Threshold: 8, Seed: 99}
	res, guess, err := Attack(ctx, rng, c, 4*n)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueriesIssued != 4*n {
		t.Errorf("QueriesIssued = %d", res.QueriesIssued)
	}
	if len(guess) != n {
		t.Fatalf("guess length %d", len(guess))
	}
	if res.HammingError > 0.12 {
		t.Errorf("reconstruction error = %v, want <= 0.12", res.HammingError)
	}
	if res.MeanAbsResidual > 3*c.SD {
		t.Errorf("mean residual = %v suspiciously large", res.MeanAbsResidual)
	}
}

func TestAttackFailsUnderHugeNoise(t *testing.T) {
	// Enough noise does defeat the attack — the "fundamental law" has two
	// sides. (Diffix's actual noise was far too small for its n.)
	rng := rand.New(rand.NewSource(4))
	n := 48
	c := &Cloak{X: synth.BinaryDataset(rng, n, 0.5), SD: float64(n), Threshold: 8, Seed: 5}
	res, _, err := Attack(ctx, rng, c, 4*n)
	if err != nil {
		t.Fatal(err)
	}
	if res.HammingError < 0.15 {
		t.Errorf("error = %v under SD=n noise; expected reconstruction to fail", res.HammingError)
	}
}

func TestAttackValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := &Cloak{X: []int64{0, 1}, SD: 1, Threshold: 1, Seed: 1}
	if _, _, err := Attack(ctx, rng, c, 0); err == nil {
		t.Error("zero queries should fail")
	}
}

// StickinessCheck verifies the averaging defense: issuing the same query
// repeatedly must return the identical answer. It returns an error if two
// answers differ (which would indicate the defense is broken).
func StickinessCheck(ctx context.Context, c *Cloak, q []int, repeats int) error {
	if repeats <= 0 {
		return nil
	}
	batch := make([][]int, repeats)
	for i := range batch {
		batch[i] = q
	}
	answers, err := c.Answer(ctx, batch)
	if err != nil {
		return err
	}
	for _, a := range answers[1:] {
		if a != answers[0] {
			return fmt.Errorf("diffix: sticky noise broken: %v != %v", a, answers[0])
		}
	}
	return nil
}
