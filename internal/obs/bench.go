package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// BenchEntry is the machine-readable per-experiment record of a benchmark
// summary: wall-clock plus the work counters that back the paper's
// complexity claims (oracle queries, simplex pivots, SAT conflicts...).
type BenchEntry struct {
	ID       string           `json:"id"`
	Seconds  float64          `json:"seconds"`
	Error    string           `json:"error,omitempty"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// BenchSummary is the content of a BENCH_<rev>.json file — one point of
// the repository's performance trajectory.
type BenchSummary struct {
	Rev          string       `json:"rev"`
	Time         string       `json:"time"`
	Seed         int64        `json:"seed"`
	Quick        bool         `json:"quick"`
	TotalSeconds float64      `json:"total_seconds"`
	Experiments  []BenchEntry `json:"experiments"`
}

// SummarizeEvents folds journal experiment events into a BenchSummary.
func SummarizeEvents(rev string, events []Event) BenchSummary {
	sum := BenchSummary{Rev: rev}
	for _, e := range events {
		switch e.Phase {
		case "run_start":
			sum.Seed, sum.Quick, sum.Time = e.Seed, e.Quick, e.Time
		case "experiment":
			entry := BenchEntry{ID: e.ID, Seconds: e.Seconds, Error: e.Error}
			if e.Metrics != nil && len(e.Metrics.Counters) > 0 {
				entry.Counters = e.Metrics.Counters
			}
			sum.Experiments = append(sum.Experiments, entry)
			sum.TotalSeconds += e.Seconds
		}
	}
	return sum
}

// WriteBenchSummary folds a finished JSONL run journal into a
// BENCH_<rev>.json summary written beside it (rev is the commit checked
// out in the working directory) and returns the summary's path.
func WriteBenchSummary(journalPath string) (string, error) {
	f, err := os.Open(journalPath)
	if err != nil {
		return "", err
	}
	defer f.Close()
	events, err := ReadEvents(f)
	if err != nil {
		return "", err
	}
	return SummarizeEvents(GitRev("."), events).WriteFile(filepath.Dir(journalPath))
}

// WriteFile writes the summary as BENCH_<rev>.json in dir and returns the
// path. Characters hostile to filenames in rev are replaced.
func (b BenchSummary) WriteFile(dir string) (string, error) {
	rev := b.Rev
	if rev == "" {
		rev = "unknown"
	}
	rev = strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, rev)
	path := filepath.Join(dir, "BENCH_"+rev+".json")
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return "", fmt.Errorf("obs: bench summary marshal: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("obs: bench summary write: %w", err)
	}
	return path, nil
}

// GitRev resolves the current commit hash (short, 12 hex chars) by walking
// up from start looking for a .git directory and reading HEAD, loose refs
// and packed-refs directly — no git binary required. It returns "unknown"
// when no revision can be resolved.
func GitRev(start string) string {
	dir, err := filepath.Abs(start)
	if err != nil {
		return "unknown"
	}
	for {
		gitDir := filepath.Join(dir, ".git")
		if fi, err := os.Stat(gitDir); err == nil && fi.IsDir() {
			if rev := resolveHead(gitDir); rev != "" {
				return rev
			}
			return "unknown"
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}

func resolveHead(gitDir string) string {
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return ""
	}
	line := strings.TrimSpace(string(head))
	if !strings.HasPrefix(line, "ref: ") {
		return shortHash(line)
	}
	ref := strings.TrimSpace(strings.TrimPrefix(line, "ref: "))
	if data, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return shortHash(strings.TrimSpace(string(data)))
	}
	// Loose ref missing: look in packed-refs.
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return ""
	}
	for _, l := range strings.Split(string(packed), "\n") {
		fields := strings.Fields(l)
		if len(fields) == 2 && fields[1] == ref {
			return shortHash(fields[0])
		}
	}
	return ""
}

func shortHash(h string) string {
	if len(h) < 12 {
		return ""
	}
	for _, r := range h {
		if !(r >= '0' && r <= '9' || r >= 'a' && r <= 'f') {
			return ""
		}
	}
	return h[:12]
}
