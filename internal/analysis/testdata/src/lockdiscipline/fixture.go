// Fixture for the lockdiscipline analyzer: no second lock, network
// I/O, or blocking channel op while a shard mutex is held. The held-set
// is a dataflow fact — `unlockedFirst` below is syntactically identical
// to `sendHeld` except for the position of the Unlock, which only the
// CFG ordering sees.
package lockdiscipline

import (
	"net"
	"sync"
	"time"
)

type shard struct {
	mu sync.Mutex
}

type wal struct {
	mu sync.Mutex
}

func (w *wal) append(b []byte) error { return nil }

// doubleLock: acquiring a second shard's mutex nests locks.
func doubleLock(a, b *shard) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want `acquiring b\.mu while a\.mu is held`
	b.mu.Unlock()
}

// sendHeld: a channel send can block indefinitely inside the critical
// section.
func sendHeld(s *shard, ch chan int) {
	s.mu.Lock()
	ch <- 1 // want `channel send while s\.mu is held`
	s.mu.Unlock()
}

// unlockedFirst: the same send after the Unlock is fine.
func unlockedFirst(s *shard, ch chan int) {
	s.mu.Lock()
	s.mu.Unlock()
	ch <- 1 // ok: lock released before the send
}

// sleepHeld: a known blocker under the lock.
func sleepHeld(s *shard) {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(time.Millisecond) // want `time\.Sleep while s\.mu is held`
}

// dialHeld: network I/O under the lock turns the shard into a convoy.
func dialHeld(s *shard) {
	s.mu.Lock()
	defer s.mu.Unlock()
	net.LookupHost("example.com") // want `net\.LookupHost while s\.mu is held`
}

// walAppend: a call that is none of the flagged blockers is fine under
// the lock, even a file append — write-ahead durability requires the
// ledger's WAL append inside its critical section.
func walAppend(s *shard, w *wal, b []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w.append(b) // ok: not a lock, channel op, sleep, wait or network call
}

// nonBlockingSend: a select with default never blocks; dropping for
// slow subscribers under the lock is the sanctioned journal pattern.
func nonBlockingSend(s *shard, ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case ch <- 1: // ok: default clause makes this non-blocking
	default:
	}
}

// blockingSelect: without a default the select blocks like a bare send.
func blockingSelect(s *shard, ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case ch <- 1: // want `blocking select while s\.mu is held`
	}
}

// closureHeld: a function literal's body is its own critical section,
// checked where it is written rather than where it is created.
func closureHeld(s *shard, ch chan int) func() {
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		ch <- 1 // want `channel send while s\.mu is held in closureHeld\.func`
	}
}

// lockedOnOneBranch: the lock is taken on one arm of the if, so the
// send in the loop past the merge may run under it. The merge block is
// first reached with nothing held; the held set must still flow on
// once the locking arm joins it.
func lockedOnOneBranch(s *shard, ch chan int, locked bool) {
	if locked {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	for i := 0; i < 2; i++ {
		ch <- i // want `channel send while s\.mu is held in lockedOnOneBranch`
	}
}

// acknowledged: the escape hatch documents itself.
func acknowledged(s *shard, ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	//lint:ignore lockdiscipline fixture-sanctioned blocking send
	ch <- 1
}
