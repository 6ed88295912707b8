package remote

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"singlingout/internal/obs"
)

// This file is the server's partitioning and admission layer. The answer
// cache is partitioned by canonicalized query key and the privacy-loss
// ledger by analyst id, both with shardOf, so no lock in the request path
// is global: two requests touching different analysts and different
// queries never contend. Admission control is per ledger shard — each
// shard owns a bounded queue in front of a bounded set of active slots,
// and a request arriving at a full queue is shed with a typed overload
// refusal instead of piling up unbounded goroutines.

// shardOf maps a key to one of n shards (n >= 1). Nothing is ever
// migrated between shard counts: the cache is not persisted, and a WAL
// replay partitions every entry afresh, so plain hashing mod n is enough.
func shardOf(key string, n int) int { return int(fnvKey(key) % uint64(n)) }

// fnvKey is the shard hash: FNV-1a over the key bytes (the same family
// the ledger's batch hash and the wire trace ids use), finished with a
// splitmix64-style avalanche. FNV alone leaves similar short strings —
// exactly what canonical query keys and analyst ids are — correlated in
// the low bits the modulus keeps, starving some shards; the finalizer
// spreads them uniformly.
func fnvKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// cacheShard is one partition of the answer cache, guarded by its own
// lock. Answers are deterministic per (backend, canonical query), so a
// racing double-compute stores the same value — sharding cannot change
// what any analyst observes.
type cacheShard struct {
	mu sync.Mutex
	m  map[string]float64
}

// admission is one shard's overload gate: a bounded queue (admitted
// requests, waiting or running) in front of a bounded active set. enter
// either claims a queue slot immediately or sheds — it never blocks on a
// full queue, which is the difference between load shedding and letting
// latency grow without bound under overload.
type admission struct {
	queue   chan struct{} // cap = active + waiting room
	active  chan struct{} // cap = concurrent requests actually served
	waiting *atomic.Int64 // server-wide queued-not-active count
	depth   *obs.Gauge    // qserver.queue_depth mirror of waiting
}

// errShed is the internal admission refusal; the handler maps it to a
// CodeOverloaded wire refusal with the retry hint.
var errShed = fmt.Errorf("admission queue full")

// newAdmission builds a gate with `active` concurrent slots and `wait`
// additional waiting slots (both >= 0; active < 1 is clamped to 1).
func newAdmission(active, wait int, waiting *atomic.Int64, depth *obs.Gauge) *admission {
	if active < 1 {
		active = 1
	}
	if wait < 0 {
		wait = 0
	}
	return &admission{
		queue:   make(chan struct{}, active+wait),
		active:  make(chan struct{}, active),
		waiting: waiting,
		depth:   depth,
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
