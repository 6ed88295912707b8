package remote

import (
	"fmt"
	"testing"
)

func TestRingDeterministicAndInRange(t *testing.T) {
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key-%d", i)
		s := shardOf(k, 4)
		if s < 0 || s >= 4 {
			t.Fatalf("shardOf(%q, 4) = %d, out of range", k, s)
		}
		if again := shardOf(k, 4); again != s {
			t.Fatalf("shardOf(%q, 4) = %d then %d", k, s, again)
		}
	}
}

func TestRingCoversAllShards(t *testing.T) {
	const shards = 8
	hit := make([]bool, shards)
	for i := 0; i < 4096; i++ {
		hit[shardOf(fmt.Sprintf("key-%d", i), shards)] = true
	}
	for s, ok := range hit {
		if !ok {
			t.Fatalf("shard %d received no keys out of 4096", s)
		}
	}
}
