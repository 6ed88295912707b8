package remote

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"singlingout/internal/obs"
)

// This file is the server's cache partitioning and its admission gate.
// The answer cache, the one structure a cached request locks per key, is
// partitioned by query key with shardOf, so two requests
// touching different queries never contend on it. The privacy-loss
// ledger and the admission gate are one per server: the gate is a
// bounded queue in front of a bounded set of active slots, and a request
// arriving at a full queue is shed with a typed overload refusal instead
// of piling up unbounded goroutines.

// shardOf maps a cache key to one of n shards (n >= 1). Nothing persists
// the choice — the cache lives in memory only — so the hash may change
// between releases.
func shardOf(key string, n int) int {
	if n == 1 {
		return 0
	}
	return int(keyHash(key) % uint64(n))
}

// keyHash is the shard hash: the key's bytes are mixed in 8 at a time
// (little-endian, the last word zero-padded, the length folded into the
// start value), then finished with a splitmix64 avalanche. Query keys
// are similar strings that differ in a few bytes; the
// finalizer spreads them uniformly over the low bits the modulus keeps.
func keyHash(key string) uint64 {
	const m1, m2 = 0x9e3779b97f4a7c15, 0xc2b2ae3d27d4eb4f
	h := uint64(len(key)) * m1
	for len(key) > 0 {
		var w uint64
		if len(key) >= 8 {
			w = uint64(key[0]) | uint64(key[1])<<8 | uint64(key[2])<<16 | uint64(key[3])<<24 |
				uint64(key[4])<<32 | uint64(key[5])<<40 | uint64(key[6])<<48 | uint64(key[7])<<56
			key = key[8:]
		} else {
			for i := len(key) - 1; i >= 0; i-- {
				w = w<<8 | uint64(key[i])
			}
			key = ""
		}
		h = (h ^ w*m2) * m1
		h ^= h >> 32
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// cacheShard is one partition of the answer cache, guarded by its own
// lock. Answers are deterministic per (backend, canonical query), so a
// racing double-compute stores the same value — sharding cannot change
// what any analyst observes.
type cacheShard struct {
	mu sync.Mutex
	m  map[string]float64
}

// admission is the server's overload gate: a bounded queue (admitted
// requests, waiting or running) in front of a bounded active set. enter
// either claims a queue slot immediately or sheds — it never blocks on a
// full queue, which is the difference between load shedding and letting
// latency grow without bound under overload.
type admission struct {
	queue   chan struct{} // cap = active + waiting room
	active  chan struct{} // cap = concurrent requests actually served
	waiting atomic.Int64  // queued-not-active requests
	depth   *obs.Gauge    // qserver.queue_depth mirror of waiting
}

// errShed is the internal admission refusal; the handler maps it to a
// CodeOverloaded wire refusal with the retry hint.
var errShed = fmt.Errorf("admission queue full")

// newAdmission builds a gate with `active` concurrent slots (>= 1) and
// `wait` additional waiting slots (>= 0).
func newAdmission(active, wait int, depth *obs.Gauge) *admission {
	return &admission{
		queue:  make(chan struct{}, active+wait),
		active: make(chan struct{}, active),
		depth:  depth,
	}
}

// enter admits the caller or refuses immediately: errShed when the queue
// is full, ctx.Err() when the caller gives up while waiting for an
// active slot. On nil the caller must leave() exactly once.
func (a *admission) enter(ctx context.Context) error {
	select {
	case a.queue <- struct{}{}:
	default:
		return errShed
	}
	// Admitted. Fast path: an active slot is free right now.
	select {
	case a.active <- struct{}{}:
		return nil
	default:
	}
	// Queued: visible in qserver.queue_depth until a slot frees up.
	a.depth.Set(float64(a.waiting.Add(1)))
	defer func() { a.depth.Set(float64(a.waiting.Add(-1))) }()
	select {
	case a.active <- struct{}{}:
		return nil
	case <-ctx.Done():
		<-a.queue
		return ctx.Err()
	}
}

// leave releases the active slot and the queue slot claimed by enter.
func (a *admission) leave() {
	<-a.active
	<-a.queue
}
