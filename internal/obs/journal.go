package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// Event is one line of the structured JSONL run journal. cmd/repro emits
// one event per experiment phase (plus run_start/run_end bracketing
// events); each carries the seed, sizes, timing and a metrics snapshot of
// the work done during that phase.
type Event struct {
	// Time is the wall-clock emission time (RFC 3339, filled by Emit when
	// empty).
	Time string `json:"time"`
	// Phase labels the pipeline phase: "run_start", "experiment",
	// "run_end".
	Phase string `json:"phase"`
	// ID is the experiment id (e.g. "E02") for experiment events.
	ID string `json:"id,omitempty"`
	// Seed is the random seed the phase ran under.
	Seed int64 `json:"seed"`
	// Quick reports whether CI sizes were used.
	Quick bool `json:"quick"`
	// Sizes carries phase-specific sizes (rows, experiments, failures...).
	Sizes map[string]int `json:"sizes,omitempty"`
	// Seconds is the phase wall-clock duration.
	Seconds float64 `json:"seconds,omitempty"`
	// Error is the failure message for phases that errored.
	Error string `json:"error,omitempty"`
	// Trace is the wire-propagated trace id (X-Trace-Id) of the request
	// that caused the event, linking journal lines to Chrome-trace spans.
	Trace string `json:"trace,omitempty"`
	// Metrics is the snapshot (usually a delta) of work done in the phase.
	Metrics *Snapshot `json:"metrics,omitempty"`
	// Curve is the convergence sample for "attack.converge" events — one
	// (x, y) point of a streaming attack's accuracy-vs-queries curve (see
	// CurveSet); the journal is the only store of these points. Nil on
	// every other phase.
	Curve *CurveSample `json:"curve,omitempty"`
}

// journalRing is how many recent events a journal retains for the serve
// package's views (the SSE /journal and /converge replays and the JSON
// /converge body): enough to hold every attack.converge point of a
// streamed run, the 3,792 cells of a full E11.stream among them.
const journalRing = 4096

// mJournalDropped counts events dropped for slow journal subscribers: an
// SSE consumer comparing its received-event count against this counter
// (or against Journal.Dropped) can detect gaps in a tailed journal. The
// JSONL file itself is always complete — only the live fan-out drops.
var mJournalDropped = Default().Counter("obs.journal_dropped")

// Journal writes Events as JSON lines and fans them out to live
// subscribers (the serve package's SSE /journal and /converge endpoints).
// Safe for concurrent use.
type Journal struct {
	mu      sync.Mutex
	w       io.Writer
	events  int
	recent  []Event // last journalRing events, for replay and Recent
	subs    map[int]chan Event
	nextID  int
	dropped int64 // events dropped across all slow subscribers
}

// NewJournal returns a journal writing to w.
func NewJournal(w io.Writer) *Journal { return &Journal{w: w} }

// Emit writes one event as a single JSON line, stamping Time if unset, and
// broadcasts it to subscribers (dropping it for any subscriber whose
// buffer is full — a slow tail reader never blocks the run).
func (j *Journal) Emit(e Event) error {
	if e.Time == "" {
		e.Time = time.Now().UTC().Format(time.RFC3339Nano)
	}
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("obs: journal marshal: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.w.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("obs: journal write: %w", err)
	}
	j.events++
	j.recent = append(j.recent, e)
	if len(j.recent) > journalRing {
		j.recent = j.recent[len(j.recent)-journalRing:]
	}
	for _, ch := range j.subs {
		select {
		case ch <- e:
		default:
			// Slow subscriber: drop the event for it rather than blocking
			// the run. The drop is observable (Dropped and the
			// obs.journal_dropped counter) so tail readers can detect gaps.
			j.dropped++
			mJournalDropped.Add(1)
		}
	}
	return nil
}

// Subscribe registers a live tail: it returns the retained recent events
// (replay) and a channel carrying every event emitted from now on, with no
// gap or overlap between the two. The channel buffers buf events; when the
// subscriber falls behind (its buffer is full at Emit time), the new event
// is dropped for that subscriber rather than blocking Emit — the channel
// then carries a gapped sequence, with each drop counted in Dropped and
// the obs.journal_dropped metric. Consumers needing the complete record
// read the JSONL file, which never drops. cancel unregisters the
// subscriber and closes the channel.
func (j *Journal) Subscribe(buf int) (replay []Event, ch <-chan Event, cancel func()) {
	if buf < 1 {
		buf = 1
	}
	c := make(chan Event, buf)
	j.mu.Lock()
	defer j.mu.Unlock()
	replay = append(replay, j.recent...)
	if j.subs == nil {
		j.subs = map[int]chan Event{}
	}
	id := j.nextID
	j.nextID++
	j.subs[id] = c
	var once sync.Once
	cancel = func() {
		once.Do(func() {
			j.mu.Lock()
			delete(j.subs, id)
			j.mu.Unlock()
			close(c)
		})
	}
	return replay, c, cancel
}

// Recent returns a copy of the retained recent events, oldest first: what
// a subscriber connecting now would be replayed.
func (j *Journal) Recent() []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Event(nil), j.recent...)
}

// Dropped returns the total number of events dropped across all slow
// subscribers (the JSONL file itself never drops).
func (j *Journal) Dropped() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// Events returns the number of events emitted so far.
func (j *Journal) Events() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.events
}

// ReadEvents parses a JSONL journal back into events, as the tests of
// every journal writer (the CLI tools' -metrics runs among them) do.
func ReadEvents(r io.Reader) ([]Event, error) {
	var out []Event
	dec := json.NewDecoder(r)
	for {
		var e Event
		if err := dec.Decode(&e); errors.Is(err, io.EOF) {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("obs: journal parse: %w", err)
		}
		out = append(out, e)
	}
}
