package remote

// Test-only views of unexported state, for the external remote_test
// package.

// ReadWAL loads a ledger write-ahead log as a restart reads it: the
// entries in file order, a torn final line dropped, and an undecodable
// line anywhere else, or a sequence number that does not increase, an
// error. ReplayLedger over the result
// is the WAL tests' oracle for what a restart remembers.
func ReadWAL(path string) ([]LedgerEntry, error) {
	entries, _, err := readWAL(path)
	return entries, err
}

// Ledger returns the current entry history and totals (optionally
// filtered to one analyst), the same view GET /v1/ledger serves.
func (s *Server) Ledger(analyst string) ([]LedgerEntry, map[string]int) {
	return s.ledger.snapshot(analyst)
}

// CacheLen reports the answer-cache population across all shards.
func (s *Server) CacheLen() int {
	return int(s.cacheCount.Load())
}
