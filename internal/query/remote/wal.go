package remote

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// wal is the ledger's write-ahead log: one JSON-encoded LedgerEntry per
// line, appended BEFORE the entry is applied to the in-memory ledger
// (write-ahead in the strict sense — if the disk write fails, the budget
// movement never happens and the request fails instead). On startup the
// server replays the file through ReplayLedger, so a restart resumes
// exactly the enforced budget state: spent epsilon stays spent.
//
// The answer cache is deliberately NOT persisted. After a restart a
// previously-answered query is fresh again and charges budget again —
// the conservative direction for a privacy ledger (an analyst can be
// over-charged across restarts, never under-charged), and the sticky
// backends still return byte-identical answers.
//
// The log is fail-stop: after a write or sync error it refuses every
// later append until the process reopens it. A failed append may leave
// part or all of its line on disk while the ledger stays unmoved, and an
// entry appended after it would either glue onto the fragment — a line
// the next replay drops as a torn tail, refunding that later spend — or
// carry a cumulative that contradicts the line before it, which replay
// refuses. Stopped, the log ends with the failed line: a fragment that
// replay drops, as the ledger never applied it, or a whole entry the
// live ledger never applied. A whole spend replays as an over-charge. A
// whole refund, whose fsync failed, replays one refund below the stopped
// live total: its batch failed and released nothing, so a restart never
// lands below what the answers the server released cost.
//
// The wal has no lock of its own: the ledger's mutex serializes every
// append and the Close, so lines reach the file in sequence order.
type wal struct {
	f        walFile
	syncEach bool
	err      error // why the log stopped: a failed write or sync, or Close
}

// walFile is the file the WAL appends to, an *os.File outside tests.
type walFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// openWAL opens (creating if needed) the WAL at path for appending and
// returns it together with the entries already on disk, in file order,
// which readWAL has checked is strictly increasing sequence order.
//
// Before the first append the file is cut back to end with its last
// entry's line and a '\n': a torn tail that readWAL dropped is
// truncated away, and a final entry that lost its newline gets one.
// Appending straight onto either would glue the next entry to it in one
// undecodable line, which the next readWAL drops as a torn tail —
// refunding the spend it recorded — or refuses as mid-file corruption.
func openWAL(path string, syncEach bool) (*wal, []LedgerEntry, error) {
	entries, tail, err := readWAL(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("remote: opening ledger wal: %w", err)
	}
	if err := repairTail(f, tail); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("remote: repairing ledger wal tail: %w", err)
	}
	return &wal{f: f, syncEach: syncEach}, entries, nil
}

// repairTail makes f end right after its last entry's line, with that
// line terminated, and syncs the repair. The two cases are exclusive: a
// final line without '\n' ends the file.
func repairTail(f *os.File, tail walTail) error {
	st, err := f.Stat()
	if err != nil {
		return err
	}
	switch {
	case st.Size() > tail.end:
		err = f.Truncate(tail.end)
	case tail.end > 0 && !tail.newline:
		_, err = f.Write([]byte{'\n'})
	default:
		return nil
	}
	if err != nil {
		return err
	}
	return f.Sync()
}

// errWALStopped marks the error of an append that failed to write or
// sync, and of every append after it: the log refuses them all until
// the process reopens it, so the request that met it cannot succeed on
// a retry. Its text goes on the wire as the refusal's message.
var errWALStopped = errors.New("ledger wal stopped")

// append durably records one entry. Called with the ledger's lock held,
// before the in-memory append — a failure here must leave the ledger
// unmoved. A failed write or sync stops the log: every later append
// fails too.
func (w *wal) append(e LedgerEntry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("remote: encoding ledger wal entry: %w", err)
	}
	line = append(line, '\n')
	if w.err != nil {
		return w.err
	}
	if _, err := w.f.Write(line); err != nil {
		w.err = fmt.Errorf("%w: appending an entry: %w", errWALStopped, err)
		return w.err
	}
	if w.syncEach {
		if err := w.f.Sync(); err != nil {
			w.err = fmt.Errorf("%w: syncing: %w", errWALStopped, err)
			return w.err
		}
	}
	return nil
}

// errWALClosed stops the appends that race a Close.
var errWALClosed = errors.New("closed")

// Close syncs and closes the WAL file. Called with the ledger's lock
// held, or before the WAL serves any append.
func (w *wal) Close() error {
	if w.f == nil {
		return nil
	}
	f := w.f
	w.f = nil
	if w.err == nil {
		w.err = errWALClosed
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("remote: syncing ledger wal: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("remote: closing ledger wal: %w", err)
	}
	return nil
}

// walTail locates the end of a log's last decoded entry: end is the
// byte offset just past its line, and newline whether that line ends in
// '\n'. A log without entries has end 0.
type walTail struct {
	end     int64
	newline bool
}

// readWAL loads a ledger write-ahead log: one JSON LedgerEntry per line,
// in file order, and the tail of the entries it kept. A torn final line
// (the tail of a crash mid-append) is dropped; an undecodable line
// anywhere else is corruption and fails loudly — a privacy ledger with a
// hole in the middle must not silently replay to a smaller spend. So is
// an entry whose sequence number does not exceed the one before it: the
// ledger writes its lines in sequence order, and a crash cannot reorder
// whole lines. openWAL's caller cross-checks the result with
// ReplayLedger.
func readWAL(path string) ([]LedgerEntry, walTail, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, walTail{}, fmt.Errorf("remote: ledger wal: %w", err)
		}
		return nil, walTail{}, fmt.Errorf("remote: reading ledger wal: %w", err)
	}
	defer f.Close()
	var entries []LedgerEntry
	var tail walTail
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	// Track the byte offset past the current line, and whether the line
	// ended in '\n' (the final line of a file may not).
	var off int64
	var newline bool
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		if adv > 0 {
			off += int64(adv)
			newline = data[adv-1] == '\n'
		}
		return adv, tok, err
	})
	lineNo := 0
	var pendingErr error
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if pendingErr != nil {
			// The bad line was NOT the final one: corruption, not a torn tail.
			return nil, walTail{}, pendingErr
		}
		var e LedgerEntry
		if err := json.Unmarshal(line, &e); err != nil {
			pendingErr = fmt.Errorf("remote: ledger wal line %d: undecodable entry: %w", lineNo, err)
			continue
		}
		if n := len(entries); n > 0 && e.Seq <= entries[n-1].Seq {
			return nil, walTail{}, fmt.Errorf("remote: ledger wal line %d: seq %d does not follow seq %d", lineNo, e.Seq, entries[n-1].Seq)
		}
		entries = append(entries, e)
		tail = walTail{end: off, newline: newline}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, walTail{}, fmt.Errorf("remote: ledger wal line %d: %w", lineNo+1, err)
		}
		return nil, walTail{}, fmt.Errorf("remote: reading ledger wal: %w", err)
	}
	// pendingErr still set here means the undecodable line was the last
	// one — a torn append from a crash; replay proceeds without it (the
	// entry it would have recorded never took effect in memory either,
	// since WAL append precedes the ledger append).
	return entries, tail, nil
}
